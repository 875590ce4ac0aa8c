(* HA torture sweep: the single-standby torture, i.e. the quorum
   harness of Ha_torture at N = 1.

   `ha_torture_sweep fast` (the @ha-torture alias, wired into runtest)
   runs both negative controls plus a short failover sweep at fault
   rates up to 10%, once with stop-the-world checkpoints (stw) and once
   speculative (spec); `ha_torture_sweep deep [seed]` (@ha-torture-deep)
   sweeps more seeds, more rounds and more rates.  Exit status is
   nonzero on any run whose recovered state contradicts the reference
   model, on a missed fallback in the negative controls, or on an
   uncaught exception anywhere.  Every failure prints its seed and rate
   so it reproduces by rerunning with the same arguments. *)

module Ha_torture = Aurora_faultsim.Ha_torture

let ok = ref true

let control label mode =
  match Ha_torture.negative_control ~seed:1 ~mode with
  | Ok () -> Printf.printf "control %-5s corrupted newest epoch skipped\n%!" label
  | Error e ->
      Printf.printf "control %-5s FAIL %s\n%!" label e;
      ok := false

let run_sweep ?(speculative = false) ~seed ~runs_per_rate ~rates ~rounds () =
  let s =
    Ha_torture.quorum_sweep ~speculative ~seed ~runs_per_cell:runs_per_rate
      ~rates ~ns:[ 1 ] ~rounds ()
  in
  Printf.printf
    "sweep %-5s seed=%-8d runs=%-3d ok=%-3d evict=%d rejoin=%d retx=%d \
     released=%d dropped=%d\n\
     %!"
    (if speculative then "spec" else "stw")
    seed s.Ha_torture.q_runs s.Ha_torture.q_ok s.Ha_torture.q_evictions
    s.Ha_torture.q_rejoins s.Ha_torture.q_retransmits s.Ha_torture.q_released
    s.Ha_torture.q_dropped;
  List.iter
    (fun r -> Printf.printf "  FAIL %s\n%!" (Ha_torture.pp_quorum r))
    s.Ha_torture.q_failures;
  if s.Ha_torture.q_ok <> s.Ha_torture.q_runs then ok := false

let fast () =
  control "meta" Ha_torture.Meta;
  control "page" Ha_torture.Page;
  run_sweep ~seed:42 ~runs_per_rate:3 ~rates:[ 0.0; 0.05; 0.10 ] ~rounds:6 ();
  run_sweep ~speculative:true ~seed:42 ~runs_per_rate:3
    ~rates:[ 0.0; 0.05; 0.10 ] ~rounds:6 ()

let deep seed =
  control "meta" Ha_torture.Meta;
  control "page" Ha_torture.Page;
  List.iter
    (fun s ->
      run_sweep ~seed:s ~runs_per_rate:8
        ~rates:[ 0.0; 0.01; 0.02; 0.05; 0.08; 0.10 ]
        ~rounds:12 ();
      run_sweep ~speculative:true ~seed:s ~runs_per_rate:8
        ~rates:[ 0.0; 0.01; 0.02; 0.05; 0.08; 0.10 ]
        ~rounds:12 ())
    [ seed; seed + 1; seed + 2 ]

let () =
  (match Array.to_list Sys.argv with
  | _ :: "fast" :: _ | [ _ ] -> fast ()
  | _ :: "deep" :: rest ->
      let seed = match rest with s :: _ -> int_of_string s | [] -> 20260807 in
      deep seed
  | _ ->
      prerr_endline "usage: ha_torture_sweep [fast | deep [seed]]";
      exit 2);
  if not !ok then begin
    prerr_endline "ha_torture_sweep: HA torture found failures";
    exit 1
  end
