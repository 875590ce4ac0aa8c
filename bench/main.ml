(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 9), plus the design ablations, a set of
   wall-clock microbenchmarks, and the sweeps and gates behind the
   BENCH_*.json ledgers and the torture aliases.

     dune exec bench/main.exe            # the paper suite (the [suite] entries)
     dune exec bench/main.exe table5 fig3
     dune exec bench/main.exe micro      # Bechamel wall-clock runs
     dune exec bench/main.exe fleet smoke torture_sweep deep 7

   An artifact name may be followed by one of the mode words it accepts:
   [smoke], [fast], or [deep] with an optional integer seed.  Without
   one, the artifact runs in the first mode it lists. *)

open Harness

type artifact = {
  name : string;
  doc : string;
  suite : bool;  (** part of the no-argument run *)
  modes : mode list;  (** accepted modes, the default first *)
  run : mode -> unit;
}

let paper name doc f = { name; doc; suite = true; modes = [ Full ]; run = (fun _ -> f ()) }
let bench name doc modes run = { name; doc; suite = false; modes; run }

(* Tiny-parameter pass over the bench machinery (part of the bench-smoke
   dune alias): exercises the flush-scale sweep and the micro harness
   quickly enough for CI, then the restore-verification allocation gate. *)
let smoke () =
  Flush_scale.run ~sizes:[ 256; 1024 ] ();
  Micro.run ();
  Verify_gate.gate ~small:1_000 ~large:16_000

let artifacts =
  [
    paper "table1" "CRIU checkpoint breakdown (500 MB Redis)" Table1.run;
    paper "table4" "POSIX object checkpoint/restore times" Table4.run;
    paper "table5" "memory-object stop times (incremental/atomic/journal)" Table5.run;
    paper "table6" "application checkpoint and restore times" Table6.run;
    paper "table7" "Aurora vs CRIU vs RDB" Table7.run;
    paper "fig3" "FileBench: Aurora FS vs ZFS vs FFS" Fig3.run;
    paper "fig4" "Memcached max throughput vs checkpoint period" Fig4.run;
    paper "fig5" "Memcached latency at fixed 120 kops/s" Fig5.run;
    paper "fig6" "RocksDB configurations" Fig6.run;
    paper "ablate" "design-choice ablations" Ablate.run;
    paper "ext-sync" "external synchrony cost (paper section 8 caveat)" Extsync_bench.run;
    paper "flush-scale" "coalesced flush pipeline vs dirty-set size" (fun () -> Flush_scale.run ());
    bench "micro" "Bechamel wall-clock microbenchmarks" [ Full ] (fun _ -> Micro.run ());
    bench "smoke" "tiny-parameter smoke pass (dune build @bench-smoke)" [ Full ] (fun _ -> smoke ());
    bench "ckpt_steady" "[smoke] steady-state incremental checkpoint cost" [ Full; Smoke ]
      Ckpt_steady.main;
    bench "ckpt_dedup" "[smoke] page-granular dedup + compression bytes" [ Full; Smoke ]
      Ckpt_dedup.main;
    bench "ckpt_spec" "[smoke] speculative vs stop-the-world stop window" [ Full; Smoke ]
      Ckpt_spec.main;
    bench "obs_report" "[smoke] per-phase latency report and Chrome trace" [ Full; Smoke ]
      Obs_report.main;
    bench "obs_overhead" "[smoke] disabled-tracer overhead gate" [ Full; Smoke ] Obs_overhead.main;
    bench "fleet" "[smoke] multi-tenant interleaved checkpointing" [ Full; Smoke ] Fleet.main;
    bench "http_sim" "[smoke] HTTP tier SLOs vs checkpoint period" [ Full; Smoke ] Http_sim.main;
    bench "torture_sweep" "[fast | deep [seed]] crash-point enumeration and fault sweeps"
      [ Fast; Deep None ] Torture_sweep.main;
    bench "ha_torture_sweep" "[fast | deep [seed]] single-standby failover torture"
      [ Fast; Deep None ] Ha_quorum.torture_main;
    bench "ha_quorum" "[fast | smoke | deep [seed]] quorum replication torture and gates"
      [ Fast; Smoke; Deep None ] Ha_quorum.main;
  ]

let usage () =
  print_endline "usage: main.exe [artifact [mode]]...";
  print_endline "artifacts:";
  List.iter (fun a -> Printf.printf "  %-16s %s\n" a.name a.doc) artifacts

(* Consume a mode word only when the artifact accepts it, so
   [main.exe table4 smoke] still runs table4 and then the smoke pass. *)
let take_mode a args =
  let accepts m = List.mem m a.modes in
  match args with
  | "smoke" :: rest when accepts Smoke -> (Smoke, rest)
  | "fast" :: rest when accepts Fast -> (Fast, rest)
  | "deep" :: seed :: rest when accepts (Deep None) && int_of_string_opt seed <> None ->
      (Deep (int_of_string_opt seed), rest)
  | "deep" :: rest when accepts (Deep None) -> (Deep None, rest)
  | rest -> (List.hd a.modes, rest)

let rec dispatch = function
  | [] -> ()
  | name :: args -> (
      match List.find_opt (fun a -> a.name = name) artifacts with
      | None ->
          usage ();
          exit 1
      | Some a ->
          let mode, rest = take_mode a args in
          a.run mode;
          dispatch rest)

let () =
  match Array.to_list Sys.argv with
  | _ :: [] ->
      print_endline "=== Aurora single level store: paper evaluation suite ===";
      print_newline ();
      List.iter (fun a -> if a.suite then a.run Full) artifacts
  | _ :: names -> dispatch names
  | [] -> usage ()
