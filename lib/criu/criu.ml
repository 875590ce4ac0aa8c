module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Fdesc = Aurora_kern.Fdesc
module Pipe = Aurora_kern.Pipe
module Socket = Aurora_kern.Socket
module Kqueue = Aurora_kern.Kqueue
module Vm_map = Aurora_vm.Vm_map
module Vm_space = Aurora_vm.Vm_space
module Vm_object = Aurora_vm.Vm_object
module Page = Aurora_vm.Page
module Wire = Aurora_objstore.Wire

type breakdown = {
  os_state_ns : int;
  memory_copy_ns : int;
  total_stop_ns : int;
  io_write_ns : int;
  image_bytes : int;
}

(* Count the kernel objects a process-centric walk must query: every fd of
   every process (shared descriptions are visited once per referencing
   process — the inference pass is what deduplicates them), every VM map
   entry, every thread. *)
let object_visits procs =
  List.fold_left
    (fun acc (p : Process.t) ->
      acc + 1 (* the process itself *)
      + List.length p.Process.threads
      + Process.fd_count p
      + Vm_map.entry_count (Vm_space.map p.Process.space))
    0 procs

(* Unique resident pages across the group (deduplicated by object). *)
let unique_pages procs =
  let seen = Hashtbl.create 64 in
  let total = ref 0 in
  let rec count obj =
    if not (Hashtbl.mem seen (Vm_object.id obj)) then begin
      Hashtbl.replace seen (Vm_object.id obj) ();
      total := !total + Vm_object.resident_pages obj;
      match Vm_object.parent obj with None -> () | Some parent -> count parent
    end
  in
  List.iter
    (fun (p : Process.t) ->
      List.iter
        (fun (e : Vm_map.entry) -> count e.Vm_map.obj)
        (Vm_map.entries (Vm_space.map p.Process.space)))
    procs;
  !total

(* Image serialization: process records plus raw page payloads.  The image
   reuses the SLS wire discipline but with CRIU's flat, per-process layout
   (memory is dumped as a flat range list per mapping). *)

let magic = "CRIUIMG1"

let serialize_desc w (d : Fdesc.t) =
  Wire.u64 w d.Fdesc.desc_id;
  match d.Fdesc.kind with
  | Fdesc.Vnode_file { vn; offset; append } ->
      Wire.u8 w 0;
      Wire.u64 w (Aurora_kern.Vnode.inode vn);
      Wire.u64 w offset;
      Wire.u8 w (if append then 1 else 0)
  | Fdesc.Pipe_read p ->
      Wire.u8 w 1;
      Wire.u64 w (Pipe.id p);
      Wire.str w (Pipe.peek_all p)
  | Fdesc.Pipe_write p ->
      Wire.u8 w 2;
      Wire.u64 w (Pipe.id p)
  | Fdesc.Socket_fd s ->
      Wire.u8 w 3;
      Wire.u64 w (Socket.id s)
  | Fdesc.Kqueue_fd k ->
      Wire.u8 w 4;
      Wire.u64 w (Kqueue.id k);
      Wire.u32 w (Kqueue.event_count k)
  | Fdesc.Pty_master_fd p ->
      Wire.u8 w 5;
      Wire.u64 w (Aurora_kern.Pty.id p)
  | Fdesc.Pty_slave_fd p ->
      Wire.u8 w 6;
      Wire.u64 w (Aurora_kern.Pty.id p)
  | Fdesc.Shm_fd s ->
      Wire.u8 w 7;
      Wire.u64 w (Aurora_kern.Shm.id s)
  | Fdesc.Device_fd name ->
      Wire.u8 w 8;
      Wire.str w name

let serialize_proc w (p : Process.t) =
  Wire.u64 w p.Process.pid_local;
  Wire.str w p.Process.name;
  Wire.u32 w (List.length p.Process.threads);
  Wire.list w
    (fun (slot, d) ->
      Wire.u32 w slot;
      serialize_desc w d)
    (Process.fds p);
  Wire.list w
    (fun (e : Vm_map.entry) ->
      Wire.u64 w e.Vm_map.start_vpn;
      Wire.u64 w e.Vm_map.npages;
      Wire.u8 w (if e.Vm_map.prot.Vm_map.write then 1 else 0);
      (* Flat memory dump: every resident page of the mapping's chain. *)
      let pages = ref [] in
      for vpn = e.Vm_map.start_vpn to e.Vm_map.start_vpn + e.Vm_map.npages - 1 do
        let rel = vpn - e.Vm_map.start_vpn in
        let idx = rel + e.Vm_map.obj_pgoff in
        let rec lookup obj =
          match Vm_object.find_local obj idx with
          | Some page -> Some page
          | None -> (
              match Vm_object.parent obj with
              | None -> None
              | Some parent -> lookup parent)
        in
        match lookup e.Vm_map.obj with
        | Some page -> pages := (rel, Page.blit_payload page) :: !pages
        | None -> ()
      done;
      Wire.list w
        (fun (idx, payload) ->
          Wire.u32 w idx;
          Wire.str w (Bytes.to_string payload))
        (List.rev !pages))
    (Vm_map.entries (Vm_space.map p.Process.space))

let checkpoint machine procs =
  let clk = machine.Machine.clock in
  let stop_begin = Clock.now clk in
  (* Freeze the whole tree for the entire operation: CRIU has no COW
     tracking, so the target cannot run while memory is collected. *)
  Machine.quiesce machine procs;
  (* Phase 1: OS-state collection.  Every object is queried from userspace
     and sharing is inferred by matching ids across processes. *)
  let visits = object_visits procs in
  Clock.advance clk (visits * Cost.criu_per_object_inference);
  let os_state_end = Clock.now clk in
  (* Phase 2: copy application memory while still frozen. *)
  let pages = unique_pages procs in
  let mem_bytes = pages * Page.logical_size in
  Clock.advance clk (Cost.transfer_time ~bandwidth:Cost.criu_copy_bandwidth mem_bytes);
  let copy_end = Clock.now clk in
  (* Build the actual image (content correctness; CPU already charged). *)
  let w = Wire.writer () in
  Wire.str w magic;
  Wire.list w (serialize_proc w) procs;
  let image = Wire.to_string w in
  Machine.resume machine procs;
  let stop_end = Clock.now clk in
  (* Phase 3: write the image out; no flush (Table 1's caveat). *)
  let io_ns =
    Cost.transfer_time ~bandwidth:Cost.criu_io_bandwidth
      (mem_bytes + String.length image)
  in
  Clock.advance clk io_ns;
  ( {
      os_state_ns = os_state_end - stop_begin;
      memory_copy_ns = copy_end - os_state_end;
      total_stop_ns = stop_end - stop_begin;
      io_write_ns = io_ns;
      image_bytes = mem_bytes + String.length image;
    },
    image )

let restore machine image =
  let clk = machine.Machine.clock and log = machine.Machine.log in
  let r = Wire.reader (Bytes.of_string image) in
  (match Wire.rstr r with
  | m when m = magic -> ()
  | _ -> failwith "Criu.restore: bad image magic");
  let pipes : (int, Pipe.t) Hashtbl.t = Hashtbl.create 8 in
  Wire.rlist r (fun r ->
      let _pid_local = Wire.ru64 r in
      let name = Wire.rstr r in
      let nthreads = Wire.ru32 r in
      let p = Aurora_kern.Syscall.spawn machine ~name in
      for _ = 2 to nthreads do
        p.Process.threads <-
          p.Process.threads @ [ Aurora_kern.Thread.create ~tid:(Machine.alloc_tid machine) ];
        Process.touch p
      done;
      let fds =
        Wire.rlist r (fun r ->
            let slot = Wire.ru32 r in
            let _desc_id = Wire.ru64 r in
            let kind_tag = Wire.ru8 r in
            let desc =
              match kind_tag with
              | 1 ->
                  let id = Wire.ru64 r in
                  let data = Wire.rstr r in
                  let pipe =
                    match Hashtbl.find_opt pipes id with
                    | Some pipe -> pipe
                    | None ->
                        let pipe = Pipe.create log in
                        Hashtbl.replace pipes id pipe;
                        pipe
                  in
                  (* The buffer travels with the read end; the write end
                     may already have created the pipe empty. *)
                  Pipe.refill pipe data;
                  Some (Fdesc.create log (Fdesc.Pipe_read pipe))
              | 2 ->
                  let id = Wire.ru64 r in
                  let pipe =
                    match Hashtbl.find_opt pipes id with
                    | Some pipe -> pipe
                    | None ->
                        let pipe = Pipe.create log in
                        Hashtbl.replace pipes id pipe;
                        pipe
                  in
                  Some (Fdesc.create log (Fdesc.Pipe_write pipe))
              | 3 ->
                  let _ = Wire.ru64 r in
                  Some
                    (Fdesc.create log
                       (Fdesc.Socket_fd (Socket.create log Socket.Inet Socket.Udp)))
              | 4 ->
                  let _ = Wire.ru64 r in
                  let _ = Wire.ru32 r in
                  Some (Fdesc.create log (Fdesc.Kqueue_fd (Kqueue.create log)))
              | 0 ->
                  let _inode = Wire.ru64 r in
                  let _offset = Wire.ru64 r in
                  let _append = Wire.ru8 r in
                  None (* files need a cooperating filesystem; unsupported *)
              | 8 -> Some (Fdesc.create log (Fdesc.Device_fd (Wire.rstr r)))
              | _ ->
                  let _ = Wire.ru64 r in
                  None
            in
            (slot, desc))
      in
      List.iter
        (fun (slot, desc) ->
          match desc with
          | Some d ->
              Clock.advance clk Cost.restore_object_link;
              Process.install_fd_at p slot d
          | None -> ())
        fds;
      let entries =
        Wire.rlist r (fun r ->
            let start_vpn = Wire.ru64 r in
            let npages = Wire.ru64 r in
            let writable = Wire.ru8 r = 1 in
            let pages =
              Wire.rlist r (fun r ->
                  let idx = Wire.ru32 r in
                  let payload = Wire.rstr r in
                  (idx, payload))
            in
            (start_vpn, npages, writable, pages))
      in
      List.iter
        (fun (start_vpn, npages, writable, pages) ->
          let obj = Vm_object.create Vm_object.Anonymous in
          List.iter
            (fun (idx, payload) ->
              let page = Page.alloc_sized ~payload:(String.length payload) in
              Page.load_payload page (Bytes.of_string payload);
              Vm_object.insert_page obj idx page)
            pages;
          Clock.advance clk (Cost.copy_time (List.length pages * Page.logical_size));
          ignore
            (Vm_map.map
               (Vm_space.map p.Process.space)
               ~vpn:start_vpn ~npages
               ~prot:(if writable then Vm_map.prot_rw else Vm_map.prot_ro)
               ~obj ~obj_pgoff:0))
        entries;
      p)
