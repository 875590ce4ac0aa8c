(* Steady-state checkpoint cost: group size x mutation ratio sweep.

   A long-running group reaches steady state quickly: most kernel objects
   stop changing between 100 Hz intervals.  This sweep measures what one
   interval then costs.  Each configuration builds a group of G processes
   with P pipe pairs each, mutates a [ratio] fraction of the pipes per
   interval, and takes paired checkpoints: the incremental pass (skip via
   generation stamps) immediately followed by a [~full:true] pass over the
   identical state — the full-reserialize baseline the paper's system
   shadowing always pays for OS state.

   Emits BENCH_ckpt_steady.json next to the binary's working directory.

     dune exec bench/main.exe ckpt_steady          # full sweep
     dune exec bench/main.exe ckpt_steady smoke    # tiny CI pass *)

module Syscall = Aurora_kern.Syscall
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

type sample = {
  procs : int;
  objects : int;
  ratio : float;
  pipes_dirtied : int;
  inc_serialize_ns : float;
  inc_meta_bytes : float;
  inc_serialized : float;
  inc_skipped : float;
  full_serialize_ns : float;
  full_meta_bytes : float;
}

(* One configuration: G procs, each with [pipes_per_proc] pipe pairs and a
   one-page arena.  OS objects per proc: the proc, 2 descriptions and 1
   pipe per pair. *)
let measure ~procs:g ~pipes_per_proc:pp ~ratio ~intervals =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let members =
    List.init g (fun i ->
        let p = Syscall.spawn m ~name:(Printf.sprintf "svc%d" i) in
        let pipes = Array.init pp (fun _ -> Syscall.pipe m p) in
        ignore (Syscall.mmap_anon p ~npages:1);
        (p, pipes))
  in
  let all_pipes =
    List.concat_map (fun (p, pipes) -> Array.to_list pipes |> List.map (fun fds -> (p, fds))) members
  in
  let all_pipes = Array.of_list all_pipes in
  let n_pipes = Array.length all_pipes in
  let objects = g * (1 + (3 * pp)) in
  let group = Sls.attach sys (List.map fst members) in
  ignore (Group.checkpoint group);
  let dirty_count = max 1 (int_of_float (Float.round (ratio *. float_of_int n_pipes))) in
  let inc = ref [] and full = ref [] in
  for i = 0 to intervals - 1 do
    (* Mutate a rotating window of pipes; drain what was written so the
       buffered state (and thus the serialized image size) stays bounded. *)
    for k = 0 to dirty_count - 1 do
      let p, (r, w) = all_pipes.(((i * dirty_count) + k) mod n_pipes) in
      ignore (Syscall.write m p ~fd:w "x");
      ignore (Syscall.read m p ~fd:r ~len:1)
    done;
    inc := Group.checkpoint group :: !inc;
    (* Identical state, full reserialization: the baseline. *)
    full := Group.checkpoint ~full:true group :: !full
  done;
  let f sel l = Harness.avg (List.map sel l) in
  {
    procs = g;
    objects;
    ratio;
    pipes_dirtied = dirty_count;
    inc_serialize_ns = f (fun s -> float_of_int s.Group.os_serialize_ns) !inc;
    inc_meta_bytes = f (fun s -> float_of_int s.Group.meta_bytes_written) !inc;
    inc_serialized = f (fun s -> float_of_int s.Group.objects_serialized) !inc;
    inc_skipped = f (fun s -> float_of_int s.Group.objects_skipped) !inc;
    full_serialize_ns = f (fun s -> float_of_int s.Group.os_serialize_ns) !full;
    full_meta_bytes = f (fun s -> float_of_int s.Group.meta_bytes_written) !full;
  }

let json_row s =
  Harness.(
    Obj
      [
        ("procs", int s.procs); ("objects", int s.objects);
        ("mutation_ratio", float 4 s.ratio); ("pipes_dirtied", int s.pipes_dirtied);
        ( "incremental",
          Obj
            [
              ("serialize_ns", float 1 s.inc_serialize_ns); ("meta_bytes", float 1 s.inc_meta_bytes);
              ("objects_serialized", float 2 s.inc_serialized);
              ("objects_skipped", float 2 s.inc_skipped);
            ] );
        ( "full",
          Obj
            [ ("serialize_ns", float 1 s.full_serialize_ns); ("meta_bytes", float 1 s.full_meta_bytes) ]
        );
        ("serialize_speedup", float 2 (s.full_serialize_ns /. Float.max 1.0 s.inc_serialize_ns));
        ("meta_reduction", float 2 (s.full_meta_bytes /. Float.max 1.0 s.inc_meta_bytes));
      ])

let run ~configs ~intervals =
  print_endline "ckpt-steady: steady-state incremental checkpoint cost";
  print_endline
    "  (paired intervals: incremental pass vs ~full:true reserialization of \
     the same state)";
  print_newline ();
  let table =
    Text_table.create
      ~header:
        [
          "procs";
          "objects";
          "mutation";
          "inc serialize";
          "full serialize";
          "speedup";
          "inc meta";
          "full meta";
          "reduction";
          "ser/skip";
        ]
  in
  let samples =
    List.map
      (fun (g, pp, ratio) -> measure ~procs:g ~pipes_per_proc:pp ~ratio ~intervals)
      configs
  in
  List.iter
    (fun s ->
      Text_table.add_row table
        [
          string_of_int s.procs;
          string_of_int s.objects;
          Printf.sprintf "%.0f%%" (s.ratio *. 100.0);
          Units.ns_to_string (int_of_float s.inc_serialize_ns);
          Units.ns_to_string (int_of_float s.full_serialize_ns);
          Printf.sprintf "%.1fx" (s.full_serialize_ns /. Float.max 1.0 s.inc_serialize_ns);
          Printf.sprintf "%.0f B" s.inc_meta_bytes;
          Printf.sprintf "%.0f B" s.full_meta_bytes;
          Printf.sprintf "%.1fx" (s.full_meta_bytes /. Float.max 1.0 s.inc_meta_bytes);
          Printf.sprintf "%.1f/%.1f" s.inc_serialized s.inc_skipped;
        ])
    samples;
  Text_table.print table;
  print_newline ();
  Harness.write_json "BENCH_ckpt_steady.json"
    [ ("bench", Harness.str "ckpt_steady"); ("configs", Harness.Rows (List.map json_row samples)) ];
  (* Acceptance gate: at the lowest mutation ratio the incremental pass
     must beat full reserialization by >= 10x on both serialize time and
     staged meta bytes. *)
  let worst =
    List.filter (fun s -> s.ratio <= 0.011) samples
    |> List.map (fun s ->
           ( s.full_serialize_ns /. Float.max 1.0 s.inc_serialize_ns,
             s.full_meta_bytes /. Float.max 1.0 s.inc_meta_bytes ))
  in
  List.iter
    (fun (speedup, reduction) ->
      if speedup < 10.0 || reduction < 10.0 then
        Harness.fail
          "ckpt-steady: FAIL: 1%% mutation speedup %.1fx / meta reduction %.1fx \
           (need >= 10x)"
          speedup reduction)
    worst;
  if worst <> [] then
    print_endline "acceptance: >= 10x serialize and meta reduction at 1% mutation"

let main = function
  | Harness.Smoke ->
      (* Tiny CI pass; still crosses the 10x gate at the ~1% point. *)
      run
        ~configs:[ (8, 5, 0.01); (8, 5, 0.25) ]
        ~intervals:3
  | _ ->
      run
        ~configs:
          [
            (4, 4, 0.01);
            (4, 4, 0.10);
            (4, 4, 0.50);
            (16, 4, 0.01);
            (16, 4, 0.10);
            (16, 4, 0.50);
            (64, 4, 0.01);
            (64, 4, 0.10);
            (64, 4, 0.50);
            (64, 4, 1.00);
          ]
        ~intervals:8
