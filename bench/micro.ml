(* Wall-clock Bechamel microbenchmarks of the real data structures: these
   measure the simulator's own implementation speed (not virtual time),
   demonstrating the hot paths are efficient enough to drive the
   experiments. *)

open Bechamel
open Toolkit

module Clock = Aurora_sim.Clock
module Page = Aurora_vm.Page
module Vm_object = Aurora_vm.Vm_object
module Vm_space = Aurora_vm.Vm_space
module Vm_map = Aurora_vm.Vm_map
module Striped = Aurora_block.Striped
module Store = Aurora_objstore.Store
module Wire = Aurora_objstore.Wire

let test_page_fault =
  Test.make ~name:"vm fault+write (cold pmap)"
    (Staged.stage (fun () ->
         let clock = Clock.create () in
         let space = Vm_space.create ~clock in
         let e = Vm_space.map_anonymous space ~npages:64 ~prot:Vm_map.prot_rw in
         let addr = Vm_space.addr_of_entry e in
         for i = 0 to 63 do
           Vm_space.write_byte space ~addr:(addr + (i * Page.logical_size)) 'x'
         done))

let test_shadow_collapse =
  Test.make ~name:"shadow + reverse collapse (256 pages)"
    (Staged.stage (fun () ->
         let clock = Clock.create () in
         let base = Vm_object.create Vm_object.Anonymous in
         for i = 0 to 255 do
           Vm_object.insert_page base i (Page.alloc ())
         done;
         let shadow = Vm_object.shadow ~clock base in
         for i = 0 to 15 do
           Vm_object.insert_page shadow i (Page.alloc ())
         done;
         ignore (Vm_object.collapse ~clock ~direction:Vm_object.Aurora_reverse shadow)))

let test_store_checkpoint =
  Test.make ~name:"store checkpoint (64 pages)"
    (Staged.stage (fun () ->
         let clock = Clock.create () in
         let dev = Striped.create () in
         let store = Store.format ~dev ~clock in
         let oid = Store.alloc_oid store in
         ignore (Store.begin_checkpoint store);
         Store.put_object store ~oid ~kind:"bench" ~meta:"m";
         Store.put_pages store ~oid
           (List.init 64 (fun i -> (i, Bytes.make 64 'p')));
         ignore (Store.commit_checkpoint store)))

(* 4096 pages committed, then all of them rewritten in a second commit. *)
let incremental_commit () =
  let clock = Clock.create () in
  let dev = Striped.create () in
  let store = Store.format ~dev ~clock in
  let oid = Store.alloc_oid store in
  ignore (Store.begin_checkpoint store);
  Store.put_object store ~oid ~kind:"bench" ~meta:"m";
  Store.put_pages store ~oid (List.init 4096 (fun i -> (i, Bytes.make 64 'p')));
  ignore (Store.commit_checkpoint store);
  ignore (Store.begin_checkpoint store);
  Store.put_pages store ~oid (List.init 4096 (fun i -> (i, Bytes.make 64 'q')));
  ignore (Store.commit_checkpoint store);
  store

let test_store_incremental =
  Test.make ~name:"store incremental commit (4k dirty pages)"
    (Staged.stage (fun () -> ignore (incremental_commit ())))

let test_wire =
  Test.make ~name:"wire serialize+parse (1k ints)"
    (Staged.stage (fun () ->
         let w = Wire.writer () in
         Wire.list w (fun i -> Wire.u64 w i) (List.init 1000 Fun.id);
         let r = Wire.reader (Wire.contents w) in
         ignore (Wire.rlist r Wire.ru64)))

let run () =
  print_endline "Bechamel wall-clock microbenchmarks (simulator hot paths)";
  print_newline ();
  let tests =
    [
      test_page_fault;
      test_shadow_collapse;
      test_store_checkpoint;
      test_store_incremental;
      test_wire;
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "  %-42s %10.0f ns/run\n" name est
        | Some _ | None -> Printf.printf "  %-42s (no estimate)\n" name)
      results
  in
  List.iter
    (fun test -> benchmark (Test.make_grouped ~name:"aurora" ~fmt:"%s %s" [ test ]))
    tests;
  print_newline ();
  (* One instrumented incremental commit, to show what the coalesced flush
     pipeline actually submitted. *)
  let fs = Store.flush_stats (incremental_commit ()) in
  Printf.printf
    "  flush stats (4k-page incremental commit): %d extents (%d blocks), %d \
     device submissions, leaf cache %d hits / %d misses, %d alloc calls\n"
    fs.Store.fs_extents fs.Store.fs_extent_blocks fs.Store.fs_dev_writes
    fs.Store.fs_leaf_hits fs.Store.fs_leaf_misses fs.Store.fs_alloc_calls;
  print_newline ()
