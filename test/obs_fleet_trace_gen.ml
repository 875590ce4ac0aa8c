(* Two-tenant fleet golden-trace generator.

   Boots a two-tenant fleet on one clock, traces two checkpoint periods of
   the staggered scheduler, and prints the text timeline.  The fixture is
   an executable proof that the TDM schedule partitions the clock: tenant
   t0's flush spans sit inside its own window and t1's inside the other,
   with no overlap — and every device span carries the tenant attribution
   arg threaded through the shared arbiter lane.

   `dune build @obs` diffs the output against obs_fleet_golden.expected;
   refresh after an intentional scheduling change with
   `dune build @obs --auto-promote`. *)

module Fleet = Aurora_core.Fleet
module Trace = Aurora_obs.Trace

let period = 10_000_000 (* 10 ms *)

let () =
  let f = Fleet.create ~period_ns:period [ Fleet.default_spec "t0"; Fleet.default_spec "t1" ] in
  Trace.enable ~capacity:(1 lsl 16) ~clock:(Fleet.clock f) ();
  Fleet.run_for f ~duration:(2 * period);
  if Trace.dropped () > 0 then (
    prerr_endline "obs_fleet_trace_gen: ring buffer overflowed; raise capacity";
    exit 1);
  let r = Fleet.report f in
  if r.Fleet.r_collisions <> 0 then (
    Printf.eprintf "obs_fleet_trace_gen: %d flush-window collisions\n" r.Fleet.r_collisions;
    exit 1);
  print_string (Trace.export_text ())
