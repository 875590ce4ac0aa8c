(* Restore-verification allocation gate: [Restore.verify_epoch] must stay
   linear and stream its deep payload pass, so its host allocation per
   verified page is flat in the epoch's size.  One process checkpoints an
   arena of [npages] distinct pages; verification then runs as in a
   restore, on the store [Store.recover] mounts after a crash.  The figure
   is the minor words allocated inside that one [verify_epoch], per page.
   A lookup that goes quadratic or a pass that builds and sorts page lists
   grows with the size and fails the ceiling.  Allocation is deterministic
   for a fixed toolchain, so the gate does not flake.  The ceiling is 1.5x
   what the streamed pass measures (32.6 words/page at 1k pages, 32.2 at
   16k). *)

module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Store = Aurora_objstore.Store
module Striped = Aurora_block.Striped
module Clock = Aurora_sim.Clock
module Machine = Aurora_kern.Machine
module Syscall = Aurora_kern.Syscall
module Process = Aurora_kern.Process
module Vm_space = Aurora_vm.Vm_space
module Page = Aurora_vm.Page

let words_ceiling = 48.0

let words_per_page npages =
  let sys = Sls.boot () in
  let p = Syscall.spawn sys.Sls.machine ~name:"verify-gate" in
  let addr = Vm_space.addr_of_entry (Syscall.mmap_anon p ~npages) in
  for pg = 0 to npages - 1 do
    Vm_space.write_string p.Process.space
      ~addr:(addr + (pg * Page.logical_size))
      (Printf.sprintf "page %08d" pg)
  done;
  ignore (Group.checkpoint ~wait_durable:true (Sls.attach sys [ p ]));
  (* Verify as restore does: on the store recovered after a crash. *)
  let dev = sys.Sls.device and clock = sys.Sls.machine.Machine.clock in
  Striped.crash dev ~now:(Clock.now clock);
  let store = Store.recover ~dev ~clock in
  let epoch = Store.last_complete_epoch store in
  let w0 = Gc.minor_words () in
  (match Restore.verify_epoch ~store ~epoch with
  | Ok _ -> ()
  | Error e -> failwith ("verify gate: healthy epoch rejected: " ^ e));
  (Gc.minor_words () -. w0) /. float_of_int npages

let gate ~small ~large =
  Harness.alloc_gate ~what:"verify_epoch words/page" ~unit_:"pages" ~digits:1
    ~ceiling:words_ceiling ~small ~large words_per_page
