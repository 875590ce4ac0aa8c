(* Replication torture, bench and gate drivers: two artifacts.

   `ha_torture_sweep` is the single-standby torture, i.e. the quorum
   harness of Ha_torture at N = 1.  `fast` (the @ha-torture alias, wired
   into runtest) runs both negative controls plus a short failover sweep
   at fault rates up to 10%, once with stop-the-world checkpoints (stw)
   and once speculative (spec); `deep [seed]` (@ha-torture-deep) sweeps
   more seeds, more rounds and more rates.  It fails on any run whose
   recovered state contradicts the reference model, on a missed fallback
   in the negative controls, or on an uncaught exception anywhere.

   `ha_quorum fast` (the @ha-quorum alias, wired into runtest) runs a
   short quorum-torture sweep at N in {3,5}, one pipelined-vs-
   stop-and-wait comparison and one live migration; `ha_quorum deep
   [seed]` (@ha-quorum-deep) sweeps more seeds, rates and rounds;
   `ha_quorum smoke` (part of @bench-smoke) additionally emits
   BENCH_ha_quorum.json and applies the acceptance gates:

     - quorum convergence on 100% of runs (survivors elect an epoch no
       older than the quorum commit point, reference state matches, no
       externally-synchronized message escapes the discarded window);
     - pipelined replication-plane throughput >= 3x stop-and-wait at
       N = 3 over a lossy link;
     - live-migration downtime <= 2 checkpoint periods with a
       byte-identical target.

   Exit status is nonzero on any gate or run failure; every failure
   prints its seed (and rate) so it reproduces by rerunning with the
   same arguments. *)

module Ha_torture = Aurora_faultsim.Ha_torture
module Replica_set = Aurora_core.Replica_set

let ok = ref true

let run_quorum_sweep ?(label = "quorum") ?speculative ~seed ~runs_per_cell ~rates ~ns
    ~rounds () =
  let s = Ha_torture.quorum_sweep ?speculative ~seed ~runs_per_cell ~rates ~ns ~rounds () in
  Printf.printf
    "%s seed=%-8d runs=%-3d ok=%-3d evict=%d rejoin=%d retx=%d \
     released=%d dropped=%d\n\
     %!"
    label seed s.Ha_torture.q_runs s.Ha_torture.q_ok s.Ha_torture.q_evictions
    s.Ha_torture.q_rejoins s.Ha_torture.q_retransmits s.Ha_torture.q_released
    s.Ha_torture.q_dropped;
  List.iter
    (fun r -> Printf.printf "  FAIL %s\n%!" (Ha_torture.pp_quorum r))
    s.Ha_torture.q_failures;
  if s.Ha_torture.q_ok <> s.Ha_torture.q_runs then ok := false;
  s

let run_pipeline ~seed ~rounds ~rate ~n =
  let p = Ha_torture.pipeline_vs_stop_and_wait ~seed ~rounds ~rate ~n in
  Printf.printf
    "pipeline n=%d rate=%.2f rounds=%d: plane %.3f ms pipelined vs %.3f ms \
     stop-and-wait (%.1fx), totals %.3f / %.3f ms%s%s\n\
     %!"
    p.Ha_torture.pl_n p.Ha_torture.pl_rate p.Ha_torture.pl_rounds
    (float_of_int p.Ha_torture.pl_pipe_plane_ns /. 1e6)
    (float_of_int p.Ha_torture.pl_sw_plane_ns /. 1e6)
    p.Ha_torture.pl_speedup
    (float_of_int p.Ha_torture.pl_pipe_total_ns /. 1e6)
    (float_of_int p.Ha_torture.pl_sw_total_ns /. 1e6)
    (if p.Ha_torture.pl_pipe_ok then "" else " [pipeline INCOMPLETE]")
    (if p.Ha_torture.pl_sw_ok then "" else " [stop-and-wait INCOMPLETE]");
  if not p.Ha_torture.pl_pipe_ok then ok := false;
  p

let run_migration ~seed ~rate =
  let m = Ha_torture.migration_run ~seed ~rate in
  let r = m.Ha_torture.mc_report in
  Printf.printf
    "migration seed=%d rate=%.2f: %d pre-copy rounds (%d B), final %d B, \
     downtime %.3f ms = %.2f periods, identical=%b: %s\n\
     %!"
    seed rate r.Replica_set.mig_rounds
    r.Replica_set.mig_precopy_bytes
    r.Replica_set.mig_final_bytes
    (float_of_int r.Replica_set.mig_downtime_ns /. 1e6)
    m.Ha_torture.mc_downtime_periods r.Replica_set.mig_identical
    m.Ha_torture.mc_outcome;
  if not m.Ha_torture.mc_ok then ok := false;
  m

let fast () =
  let q =
    run_quorum_sweep ~seed:42 ~runs_per_cell:2 ~rates:[ 0.0; 0.05 ]
      ~ns:[ 3; 5 ] ~rounds:6 ()
  in
  let p = run_pipeline ~seed:42 ~rounds:20 ~rate:0.05 ~n:3 in
  (q, p, run_migration ~seed:42 ~rate:0.0)

let deep seed =
  List.iter
    (fun s ->
      ignore
        (run_quorum_sweep ~seed:s ~runs_per_cell:4
           ~rates:[ 0.0; 0.02; 0.05; 0.08; 0.12 ]
           ~ns:[ 3; 5 ] ~rounds:10 ()))
    [ seed; seed + 1; seed + 2 ];
  List.iter
    (fun rate -> ignore (run_pipeline ~seed ~rounds:30 ~rate ~n:3))
    [ 0.0; 0.05; 0.10 ];
  ignore (run_pipeline ~seed ~rounds:30 ~rate:0.05 ~n:5);
  List.iter
    (fun s ->
      ignore (run_migration ~seed:s ~rate:0.0);
      ignore (run_migration ~seed:s ~rate:0.02))
    [ seed; seed + 1 ]

(* Smoke: the @bench-smoke artifact and its gates. *)

let json_out (q : Ha_torture.quorum_sweep_report)
    (p : Ha_torture.pipeline_report) (m : Ha_torture.migration_check) =
  let r = m.Ha_torture.mc_report in
  Harness.(
    write_json "BENCH_ha_quorum.json"
      [
        ( "quorum",
          Obj
            [
              ("runs", int q.Ha_torture.q_runs); ("ok", int q.Ha_torture.q_ok);
              ("evictions", int q.Ha_torture.q_evictions); ("rejoins", int q.Ha_torture.q_rejoins);
              ("retransmits", int q.Ha_torture.q_retransmits);
              ("released", int q.Ha_torture.q_released); ("dropped", int q.Ha_torture.q_dropped);
            ] );
        ( "pipeline",
          Obj
            [
              ("n", int p.Ha_torture.pl_n); ("rate", float 3 p.Ha_torture.pl_rate);
              ("rounds", int p.Ha_torture.pl_rounds);
              ("sw_plane_ns", int p.Ha_torture.pl_sw_plane_ns);
              ("pipe_plane_ns", int p.Ha_torture.pl_pipe_plane_ns);
              ("sw_total_ns", int p.Ha_torture.pl_sw_total_ns);
              ("pipe_total_ns", int p.Ha_torture.pl_pipe_total_ns);
              ("speedup", float 2 p.Ha_torture.pl_speedup);
            ] );
        ( "migration",
          Obj
            [
              ("rounds", int r.Replica_set.mig_rounds);
              ("precopy_bytes", int r.Replica_set.mig_precopy_bytes);
              ("final_bytes", int r.Replica_set.mig_final_bytes);
              ("downtime_ns", int r.Replica_set.mig_downtime_ns);
              ("period_ns", int m.Ha_torture.mc_period_ns);
              ("downtime_periods", float 3 m.Ha_torture.mc_downtime_periods);
              ("identical", bool r.Replica_set.mig_identical);
            ] );
      ])

let smoke () =
  let q, p, m = fast () in
  json_out q p m;
  if q.Ha_torture.q_ok <> q.Ha_torture.q_runs then begin
    Printf.printf "GATE FAIL: quorum convergence %d/%d < 100%%\n%!"
      q.Ha_torture.q_ok q.Ha_torture.q_runs;
    ok := false
  end;
  if p.Ha_torture.pl_speedup < 3.0 then begin
    Printf.printf
      "GATE FAIL: pipelined plane speedup %.2fx < 3x stop-and-wait\n%!"
      p.Ha_torture.pl_speedup;
    ok := false
  end;
  if not m.Ha_torture.mc_ok then begin
    Printf.printf "GATE FAIL: migration (%s)\n%!" m.Ha_torture.mc_outcome;
    ok := false
  end

(* The single-standby torture. *)

let control label mode =
  match Ha_torture.negative_control ~seed:1 ~mode with
  | Ok () -> Printf.printf "control %-5s corrupted newest epoch skipped\n%!" label
  | Error e ->
      Printf.printf "control %-5s FAIL %s\n%!" label e;
      ok := false

let standby_sweeps ~seed ~runs_per_cell ~rates ~rounds =
  List.iter
    (fun (label, speculative) ->
      ignore
        (run_quorum_sweep ~label ~speculative ~seed ~runs_per_cell ~rates ~ns:[ 1 ]
           ~rounds ()))
    [ ("sweep stw  ", false); ("sweep spec ", true) ]

let torture_fast () =
  control "meta" Ha_torture.Meta;
  control "page" Ha_torture.Page;
  standby_sweeps ~seed:42 ~runs_per_cell:3 ~rates:[ 0.0; 0.05; 0.10 ] ~rounds:6

let torture_deep seed =
  control "meta" Ha_torture.Meta;
  control "page" Ha_torture.Page;
  List.iter
    (fun s ->
      standby_sweeps ~seed:s ~runs_per_cell:8
        ~rates:[ 0.0; 0.01; 0.02; 0.05; 0.08; 0.10 ]
        ~rounds:12)
    [ seed; seed + 1; seed + 2 ]

let main mode =
  ok := true;
  (match mode with
  | Harness.Smoke -> smoke ()
  | Harness.Deep seed -> deep (Option.value seed ~default:20260809)
  | _ -> ignore (fast ()));
  if not !ok then Harness.fail "ha_quorum: quorum torture found failures"

let torture_main mode =
  ok := true;
  (match mode with
  | Harness.Deep seed -> torture_deep (Option.value seed ~default:20260807)
  | _ -> torture_fast ());
  if not !ok then Harness.fail "ha_torture_sweep: HA torture found failures"
