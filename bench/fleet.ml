(* Multi-tenant fleet checkpoint sweep: groups x period x mutation ratio.

   Each configuration boots a fleet of G single-process tenants on one
   virtual clock — per-tenant machine, store and striped array, all flush
   traffic drained through the shared bandwidth arbiter with staggered
   TDM windows — and runs the fleet scheduler for a fixed number of
   periods.  Reported per cell: aggregate checkpoint throughput, the
   worst per-tenant p99 stop time against the identical tenant run alone
   on a private store at the same period, the Jain fairness index over
   per-tenant flushed bytes, flush-span collisions between distinct
   tenants, and the admission-control delay/reject counts.

   Emits BENCH_fleet.json.

     dune exec bench/main.exe fleet          # full sweep (up to 128 groups)
     dune exec bench/main.exe fleet smoke    # tiny CI pass *)

module Fleet = Aurora_core.Fleet
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

type sample = {
  groups : int;
  period_ns : int;
  ratio : float;
  epochs : int;
  throughput : float; (* checkpoint epochs per virtual second, aggregate *)
  bytes_per_s : float;
  p99_stop_ns : float; (* worst tenant's p99 stop time *)
  solo_p99_ns : float; (* same spec, same period, alone on a private store *)
  jain : float;
  collisions : int;
  delayed : int;
  rejected : int;
  accounting_ok : bool;
}

let spec_of ~ratio i =
  let s = Fleet.default_spec (Printf.sprintf "t%03d" i) in
  (* Mutation ratio = fraction of the tenant's arena dirtied per period. *)
  let dirty =
    max 1 (int_of_float (Float.round (ratio *. float_of_int s.Fleet.sp_arena_pages)))
  in
  { s with Fleet.sp_dirty_pages = dirty }

let measure ~groups ~period_ns ~ratio ~periods =
  let specs = List.init groups (spec_of ~ratio) in
  let f = Fleet.create ~period_ns specs in
  Fleet.run_for f ~duration:(periods * period_ns);
  let r = Fleet.report f in
  let solo = Fleet.solo ~period_ns (List.hd specs) in
  Fleet.solo_run_for solo ~duration:(periods * period_ns);
  let solo_p99 = Fleet.solo_stop_p99 solo in
  let worst_p99 =
    List.fold_left
      (fun acc tr -> Float.max acc tr.Fleet.tr_stop_p99)
      0.0 r.Fleet.r_tenants
  in
  let sum sel = List.fold_left (fun acc tr -> acc + sel tr) 0 r.Fleet.r_tenants in
  {
    groups;
    period_ns;
    ratio;
    epochs = r.Fleet.r_epochs;
    throughput = r.Fleet.r_ckpt_throughput;
    bytes_per_s = r.Fleet.r_bytes_per_s;
    p99_stop_ns = worst_p99;
    solo_p99_ns = solo_p99;
    jain = r.Fleet.r_jain;
    collisions = r.Fleet.r_collisions;
    delayed = sum (fun tr -> tr.Fleet.tr_delayed);
    rejected = sum (fun tr -> tr.Fleet.tr_rejected);
    accounting_ok = r.Fleet.r_accounting_ok;
  }

let slowdown s = s.p99_stop_ns /. Float.max 1.0 s.solo_p99_ns

let json_row s =
  Harness.(
    Obj
      [
        ("groups", int s.groups); ("period_ns", int s.period_ns); ("mutation_ratio", float 4 s.ratio);
        ("epochs", int s.epochs); ("ckpt_throughput_per_s", float 1 s.throughput);
        ("bytes_per_s", float 0 s.bytes_per_s); ("p99_stop_ns", float 0 s.p99_stop_ns);
        ("solo_p99_stop_ns", float 0 s.solo_p99_ns); ("p99_slowdown", float 3 (slowdown s));
        ("jain", float 4 s.jain); ("collisions", int s.collisions); ("delayed", int s.delayed);
        ("rejected", int s.rejected); ("accounting_ok", bool s.accounting_ok);
      ])

(* Acceptance gates, applied to every measured cell: perfect window
   partitioning (zero cross-tenant flush overlaps), the arbiter's
   attribution identity, and fairness >= 0.9.  The interference gate —
   p99 stop within 3x of the solo baseline — binds at the largest fleet,
   where a shared-lane pileup would show first. *)
let check_gates ~max_groups samples =
  let ok = ref true in
  List.iter
    (fun s ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Printf.eprintf "fleet: FAIL [G=%d period=%s mutation=%.0f%%]: %s\n"
              s.groups
              (Units.ns_to_string s.period_ns)
              (s.ratio *. 100.0) msg;
            ok := false)
          fmt
      in
      if s.collisions <> 0 then fail "%d flush-window collisions" s.collisions;
      if not s.accounting_ok then fail "lane attribution identity violated";
      if s.jain < 0.9 then fail "jain %.3f < 0.9" s.jain;
      if s.groups >= max_groups && slowdown s > 3.0 then
        fail "p99 stop %.0f ns > 3x solo %.0f ns" s.p99_stop_ns s.solo_p99_ns)
    samples;
  !ok

let run ~configs ~periods ~max_groups =
  print_endline
    "fleet: multi-tenant interleaved checkpointing (shared clock, shared \
     flush lane, staggered TDM windows)";
  print_newline ();
  let samples =
    List.map
      (fun (groups, period_ns, ratio) -> measure ~groups ~period_ns ~ratio ~periods)
      configs
  in
  let table =
    Text_table.create
      ~header:
        [
          "groups";
          "period";
          "mutation";
          "epochs";
          "ckpt/s";
          "p99 stop";
          "solo p99";
          "slowdown";
          "jain";
          "coll";
          "delay/rej";
        ]
  in
  List.iter
    (fun s ->
      Text_table.add_row table
        [
          string_of_int s.groups;
          Units.ns_to_string s.period_ns;
          Printf.sprintf "%.0f%%" (s.ratio *. 100.0);
          string_of_int s.epochs;
          Printf.sprintf "%.1f" s.throughput;
          Units.ns_to_string (int_of_float s.p99_stop_ns);
          Units.ns_to_string (int_of_float s.solo_p99_ns);
          Printf.sprintf "%.2fx" (slowdown s);
          Printf.sprintf "%.3f" s.jain;
          string_of_int s.collisions;
          Printf.sprintf "%d/%d" s.delayed s.rejected;
        ])
    samples;
  Text_table.print table;
  print_newline ();
  Harness.write_json "BENCH_fleet.json"
    [ ("bench", Harness.str "fleet"); ("configs", Harness.Rows (List.map json_row samples)) ];
  if not (check_gates ~max_groups samples) then exit 1;
  Printf.printf
    "acceptance: zero collisions, jain >= 0.9, lane accounting exact, p99 \
     within 3x of solo at %d groups\n"
    max_groups

let main mode =
  let ms = 1_000_000 in
  match mode with
  | Harness.Smoke ->
      run
        ~configs:[ (2, 10 * ms, 0.25); (4, 10 * ms, 1.0) ]
        ~periods:6 ~max_groups:4
  | _ ->
      run
        ~configs:
          [
            (1, 10 * ms, 0.25);
            (8, 10 * ms, 0.25);
            (8, 10 * ms, 1.0);
            (32, 10 * ms, 0.25);
            (32, 10 * ms, 1.0);
            (32, 5 * ms, 1.0);
            (128, 10 * ms, 0.25);
            (128, 10 * ms, 1.0);
            (128, 5 * ms, 1.0);
          ]
        ~periods:12 ~max_groups:128
