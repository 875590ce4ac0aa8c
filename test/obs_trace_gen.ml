(* Golden-trace generator.

   Runs the standard faultsim workload against a fresh store with the
   tracer enabled and prints the text export.  Because the simulation is
   fully deterministic, the trace is an executable specification of the
   checkpoint pipeline's control flow and virtual timing: any change to
   phase ordering, cost charging, or flush batching shows up as a diff.

   `dune build @obs` diffs the output against obs_golden.expected.
   After an intentional pipeline change, refresh the fixture with
   `dune build @obs --auto-promote`. *)

module Clock = Aurora_sim.Clock
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Workload = Aurora_faultsim.Workload
module Trace = Aurora_obs.Trace

let () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  Trace.enable ~capacity:(1 lsl 18) ~clock ();
  let r = Workload.runner store in
  List.iter (Workload.run_op r) Workload.standard;
  Store.wait_durable store;
  if Trace.dropped () > 0 then (
    prerr_endline "obs_trace_gen: ring buffer overflowed; raise capacity";
    exit 1);
  print_string (Trace.export_text ())
