(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 9), plus the design ablations and a set of
   wall-clock microbenchmarks.

     dune exec bench/main.exe            # everything except micro
     dune exec bench/main.exe table5 fig3
     dune exec bench/main.exe micro      # Bechamel wall-clock runs *)

let artifacts =
  [
    ("table1", "CRIU checkpoint breakdown (500 MB Redis)", Table1.run);
    ("table4", "POSIX object checkpoint/restore times", Table4.run);
    ("table5", "memory-object stop times (incremental/atomic/journal)", Table5.run);
    ("table6", "application checkpoint and restore times", Table6.run);
    ("table7", "Aurora vs CRIU vs RDB", Table7.run);
    ("fig3", "FileBench: Aurora FS vs ZFS vs FFS", Fig3.run);
    ("fig4", "Memcached max throughput vs checkpoint period", Fig4.run);
    ("fig5", "Memcached latency at fixed 120 kops/s", Fig5.run);
    ("fig6", "RocksDB configurations", Fig6.run);
    ("ablate", "design-choice ablations", Ablate.run);
    ("ext-sync", "external synchrony cost (paper section 8 caveat)", Extsync_bench.run);
    ("flush-scale", "coalesced flush pipeline vs dirty-set size", fun () -> Flush_scale.run ());
  ]

let run_one name =
  match List.find_opt (fun (n, _, _) -> n = name) artifacts with
  | Some (_, _, f) ->
      f ();
      true
  | None -> (
      match name with
      | "micro" ->
          Micro.run ();
          true
      | "smoke" ->
          (* Tiny-parameter pass over the bench machinery (the bench-smoke
             dune alias): exercises the flush-scale sweep and the micro
             harness quickly enough for CI, then the restore-verification
             allocation gate. *)
          Flush_scale.run ~sizes:[ 256; 1024 ] ();
          Micro.run ();
          Verify_gate.gate ~small:1_000 ~large:16_000;
          true
      | _ -> false)

let usage () =
  print_endline "usage: main.exe [artifact...]";
  print_endline "artifacts:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-8s %s\n" n d) artifacts;
  print_endline "  micro    Bechamel wall-clock microbenchmarks";
  print_endline "  smoke    tiny-parameter smoke pass (dune build @bench-smoke)"

let () =
  match Array.to_list Sys.argv with
  | _ :: [] ->
      print_endline "=== Aurora single level store: paper evaluation suite ===";
      print_newline ();
      List.iter (fun (_, _, f) -> f ()) artifacts
  | _ :: names ->
      let ok = List.for_all run_one names in
      if not ok then begin
        usage ();
        exit 1
      end
  | [] -> usage ()
