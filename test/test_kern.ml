module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Thread = Aurora_kern.Thread
module Syscall = Aurora_kern.Syscall
module Vnode = Aurora_kern.Vnode
module Pipe = Aurora_kern.Pipe
module Socket = Aurora_kern.Socket
module Kqueue = Aurora_kern.Kqueue
module Vfs = Aurora_kern.Vfs
module Fdesc = Aurora_kern.Fdesc
module Shm = Aurora_kern.Shm
module Vm_space = Aurora_vm.Vm_space
module Clock = Aurora_sim.Clock

let machine () =
  let m = Machine.create () in
  Machine.mount m (Vfs.ram_ops ~clock:m.Machine.clock);
  m

let test_spawn_and_pid () =
  let m = machine () in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  Alcotest.(check bool) "distinct pids" true (a.Process.pid_global <> b.Process.pid_global);
  match Machine.proc m a.Process.pid_global with
  | Some found -> Alcotest.(check bool) "lookup works" true (found == a)
  | None -> Alcotest.fail "lookup failed"

let test_file_write_read () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/data" ~create:true in
  let n = Syscall.write m p ~fd "persistent contents" in
  Alcotest.(check int) "wrote all" 19 n;
  ignore (Syscall.lseek p ~fd ~off:0);
  Alcotest.(check string) "readback" "persistent contents" (Syscall.read m p ~fd ~len:100);
  Alcotest.(check string) "eof" "" (Syscall.read m p ~fd ~len:100)

let test_open_missing_fails () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  Alcotest.check_raises "ENOENT" (Syscall.Err "ENOENT") (fun () ->
      ignore (Syscall.open_file m p ~path:"/missing" ~create:false))

let test_fork_shares_offset () =
  (* The paper's file-descriptor sharing example (section 5.1): after fork,
     a read by one process moves the offset seen by the other. *)
  let m = machine () in
  let p = Syscall.spawn m ~name:"parent" in
  let fd = Syscall.open_file m p ~path:"/f" ~create:true in
  ignore (Syscall.write m p ~fd "abcdefgh");
  ignore (Syscall.lseek p ~fd ~off:0);
  let child = Syscall.fork m p in
  let part1 = Syscall.read m child ~fd ~len:4 in
  let part2 = Syscall.read m p ~fd ~len:4 in
  Alcotest.(check string) "child reads prefix" "abcd" part1;
  Alcotest.(check string) "parent continues at shared offset" "efgh" part2

let test_separate_open_independent_offset () =
  (* A third process opening the same file gets its own descriptor over the
     same vnode. *)
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let q = Syscall.spawn m ~name:"q" in
  let fdp = Syscall.open_file m p ~path:"/f" ~create:true in
  ignore (Syscall.write m p ~fd:fdp "abcdefgh");
  let fdq = Syscall.open_file m q ~path:"/f" ~create:false in
  ignore (Syscall.lseek p ~fd:fdp ~off:0);
  Alcotest.(check string) "p reads" "abcd" (Syscall.read m p ~fd:fdp ~len:4);
  Alcotest.(check string) "q offset independent" "abcd" (Syscall.read m q ~fd:fdq ~len:4)

let test_fork_cow_memory () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let e = Syscall.mmap_anon p ~npages:2 in
  let addr = Vm_space.addr_of_entry e in
  Vm_space.write_string p.Process.space ~addr "base";
  let c = Syscall.fork m p in
  Vm_space.write_string c.Process.space ~addr "kid!";
  Alcotest.(check string) "parent isolated" "base"
    (Vm_space.read_string p.Process.space ~addr ~len:4);
  Alcotest.(check string) "child sees own write" "kid!"
    (Vm_space.read_string c.Process.space ~addr ~len:4)

let test_exit_wait_sigchld () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"parent" in
  let c = Syscall.fork m p in
  Alcotest.(check (option (pair int int))) "no zombie yet" None (Syscall.waitpid m p);
  Syscall.exit m c ~code:7;
  Alcotest.(check (option int)) "SIGCHLD queued" (Some Process.sigchld)
    (Process.take_signal p);
  (match Syscall.waitpid m p with
  | Some (pid, status) ->
      Alcotest.(check int) "reaped child" c.Process.pid_global pid;
      Alcotest.(check int) "status" 7 status
  | None -> Alcotest.fail "expected zombie");
  Alcotest.(check (option (pair int int))) "only once" None (Syscall.waitpid m p)

let test_pipe_roundtrip () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let rd, wr = Syscall.pipe m p in
  ignore (Syscall.write m p ~fd:wr "through the pipe");
  Alcotest.(check string) "pipe data" "through the pipe" (Syscall.read m p ~fd:rd ~len:100)

let test_pipe_capacity () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let _rd, wr = Syscall.pipe m p in
  let big = String.make (Pipe.capacity + 1000) 'x' in
  let n = Syscall.write m p ~fd:wr big in
  Alcotest.(check int) "bounded by capacity" Pipe.capacity n

let test_dup_shares_offset () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/f" ~create:true in
  ignore (Syscall.write m p ~fd "0123456789");
  ignore (Syscall.lseek p ~fd ~off:0);
  let fd2 = Syscall.dup p ~fd in
  ignore (Syscall.read m p ~fd ~len:3);
  Alcotest.(check string) "dup continues at shared offset" "345"
    (Syscall.read m p ~fd:fd2 ~len:3)

let test_socketpair_messages () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let a, b = Syscall.socketpair m p in
  Syscall.send_msg m p ~fd:a "ping";
  (match Syscall.recv_msg m p ~fd:b with
  | Some (data, fds) ->
      Alcotest.(check string) "data" "ping" data;
      Alcotest.(check int) "no rights" 0 (List.length fds)
  | None -> Alcotest.fail "expected message")

let test_scm_rights_transfers_descriptor () =
  (* Send an open file over a UNIX socket; the receiver's new fd shares
     the description (same offset). *)
  let m = machine () in
  let sender = Syscall.spawn m ~name:"sender" in
  let receiver = Syscall.spawn m ~name:"receiver" in
  let file_fd = Syscall.open_file m sender ~path:"/shared" ~create:true in
  ignore (Syscall.write m sender ~fd:file_fd "0123456789");
  ignore (Syscall.lseek sender ~fd:file_fd ~off:0);
  let a, b = Syscall.socketpair m sender in
  (* Hand the receiving socket end to the receiver process. *)
  let b_desc = Syscall.fd_exn sender b in
  Fdesc.retain b_desc;
  let b_recv = Process.alloc_fd receiver b_desc in
  Syscall.send_msg m sender ~fd:a ~fds:[ file_fd ] "here";
  match Syscall.recv_msg m receiver ~fd:b_recv with
  | Some (data, [ got_fd ]) ->
      Alcotest.(check string) "payload" "here" data;
      ignore (Syscall.read m sender ~fd:file_fd ~len:4);
      Alcotest.(check string) "offset shared across processes" "4567"
        (Syscall.read m receiver ~fd:got_fd ~len:4)
  | Some (_, fds) -> Alcotest.failf "expected 1 fd, got %d" (List.length fds)
  | None -> Alcotest.fail "expected message"

(* The machine's description registry holds only descriptions in flight:
   sockets opened and closed leave nothing behind, and a description sent
   twice stays registered until both messages are received. *)
let test_description_registry_in_flight_only () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"churn" in
  let in_flight () = Hashtbl.length m.Machine.descriptions in
  for _ = 1 to 1_000 do
    Syscall.close p (Syscall.socket m p Socket.Inet Socket.Tcp)
  done;
  Alcotest.(check int) "socket churn registers nothing" 0 (in_flight ());
  let rd, wr = Syscall.pipe m p in
  let a, b = Syscall.socketpair m p in
  Syscall.send_msg m p ~fd:a ~fds:[ wr ] "one";
  Syscall.send_msg m p ~fd:a ~fds:[ wr ] "two";
  Alcotest.(check int) "two references in flight" 2 (in_flight ());
  let receive () =
    match Syscall.recv_msg m p ~fd:b with
    | Some (_, [ fd ]) -> fd
    | Some (_, fds) -> Alcotest.failf "expected 1 fd, got %d" (List.length fds)
    | None -> Alcotest.fail "expected message"
  in
  let fd1 = receive () in
  let fd2 = receive () in
  Alcotest.(check int) "received references leave the registry" 0 (in_flight ());
  ignore (Syscall.write m p ~fd:fd1 "ab");
  ignore (Syscall.write m p ~fd:fd2 "cd");
  Alcotest.(check string) "both received fds write the pipe" "abcd"
    (Syscall.read m p ~fd:rd ~len:8)

let test_kqueue_register () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let kq = Syscall.kqueue m p in
  for i = 0 to 9 do
    Syscall.kevent_register p ~fd:kq
      { Kqueue.ident = i; filter = Kqueue.Ev_read; flags = 1; udata = i * 10 }
  done;
  (* Re-registering the same (ident, filter) replaces. *)
  Syscall.kevent_register p ~fd:kq
    { Kqueue.ident = 3; filter = Kqueue.Ev_read; flags = 2; udata = 999 };
  match (Syscall.fd_exn p kq).Fdesc.kind with
  | Fdesc.Kqueue_fd k ->
      Alcotest.(check int) "ten events" 10 (Kqueue.event_count k);
      let ev = List.find (fun e -> e.Kqueue.ident = 3) (Kqueue.events k) in
      Alcotest.(check int) "replaced" 999 ev.Kqueue.udata
  | _ -> Alcotest.fail "not a kqueue"

(* Each activation source queues a knote that an earlier poll dequeued. *)
let test_kqueue_activation () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let kq = Syscall.kqueue m p in
  let rd, wr = Syscall.pipe m p in
  let a, b = Syscall.socketpair m p in
  let reg ident filter =
    Syscall.kevent_register p ~fd:kq { Kqueue.ident; filter; flags = 0; udata = 0 }
  in
  reg rd Kqueue.Ev_read;
  reg wr Kqueue.Ev_write;
  reg b Kqueue.Ev_read;
  let ready () =
    List.sort compare
      (List.map
         (fun (e : Kqueue.kevent) -> e.Kqueue.ident)
         (Syscall.kevent_poll m p ~fd:kq))
  in
  let expect what idents =
    Alcotest.(check (list int)) what (List.sort compare idents) (ready ())
  in
  expect "only the empty pipe's write end" [ wr ];
  ignore (Syscall.write m p ~fd:wr (String.make Pipe.capacity 'x'));
  expect "full pipe: readable, not writable" [ rd ];
  ignore (Syscall.read m p ~fd:rd ~len:1);
  expect "a read wakes the writer" [ rd; wr ];
  ignore (Syscall.write m p ~fd:a "ping");
  expect "send wakes the peer" [ rd; wr; b ];
  ignore (Syscall.read m p ~fd:b ~len:4);
  Syscall.close p rd;
  expect "drained and closed ends drop out" [];
  Syscall.dup2 p ~src:b ~dst:rd;
  ignore (Syscall.write m p ~fd:a "pong");
  expect "a new description at a watched slot" [ rd; b ]

let test_pty_echo_path () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"term" in
  let master = Syscall.posix_openpt m p in
  let slave = Syscall.open_pty_slave m p ~master_fd:master in
  ignore (Syscall.write m p ~fd:master "ls\n");
  Alcotest.(check string) "slave input" "ls\n" (Syscall.read m p ~fd:slave ~len:10);
  ignore (Syscall.write m p ~fd:slave "file1\n");
  Alcotest.(check string) "master output" "file1\n" (Syscall.read m p ~fd:master ~len:10)

let test_posix_shm_shared_between_processes () =
  let m = machine () in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  let fda = Syscall.shm_open m a ~name:"/seg" ~npages:4 in
  let fdb = Syscall.shm_open m b ~name:"/seg" ~npages:4 in
  let ea = Syscall.mmap_shm a ~fd:fda in
  let eb = Syscall.mmap_shm b ~fd:fdb in
  Vm_space.write_string a.Process.space ~addr:(Vm_space.addr_of_entry ea) "ipc!";
  Alcotest.(check string) "b sees a's write" "ipc!"
    (Vm_space.read_string b.Process.space ~addr:(Vm_space.addr_of_entry eb) ~len:4)

let test_sysv_shm () =
  let m = machine () in
  let a = Syscall.spawn m ~name:"a" in
  let b = Syscall.spawn m ~name:"b" in
  let seg = Syscall.shmget m ~key:1234 ~npages:2 in
  let seg2 = Syscall.shmget m ~key:1234 ~npages:2 in
  Alcotest.(check bool) "same segment by key" true (seg == seg2);
  let ea = Syscall.shmat a seg in
  let eb = Syscall.shmat b seg in
  Vm_space.write_string a.Process.space ~addr:(Vm_space.addr_of_entry ea) "sysv";
  Alcotest.(check string) "visible via key" "sysv"
    (Vm_space.read_string b.Process.space ~addr:(Vm_space.addr_of_entry eb) ~len:4)

let test_device_whitelist () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_device m p ~name:"hpet0" in
  Alcotest.(check bool) "hpet opens" true (fd >= 0);
  Alcotest.check_raises "EPERM" (Syscall.Err "EPERM") (fun () ->
      ignore (Syscall.open_device m p ~name:"gpu0"))

let test_dup2_replaces_slot () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd1 = Syscall.open_file m p ~path:"/a" ~create:true in
  let fd2 = Syscall.open_file m p ~path:"/b" ~create:true in
  ignore (Syscall.write m p ~fd:fd1 "AAA");
  Syscall.dup2 p ~src:fd1 ~dst:fd2;
  ignore (Syscall.lseek p ~fd:fd2 ~off:0);
  Alcotest.(check string) "dst now reads src's file" "AAA" (Syscall.read m p ~fd:fd2 ~len:8)

let test_setsid_and_kill () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"daemon" in
  Syscall.setsid p;
  Alcotest.(check int) "session leader" p.Process.pid_local p.Process.sid;
  Alcotest.(check bool) "kill by local pid" true (Syscall.kill m ~pid:p.Process.pid_local ~signo:15);
  Alcotest.(check (option int)) "signal pending" (Some 15) (Process.take_signal p);
  Alcotest.(check bool) "kill unknown pid" false (Syscall.kill m ~pid:9999 ~signo:15)

let test_tcp_connect_accept () =
  let m = machine () in
  let srv = Syscall.spawn m ~name:"srv" in
  let lfd = Syscall.socket m srv Socket.Inet Socket.Tcp in
  Syscall.bind srv ~fd:lfd { Socket.host = "0.0.0.0"; port = 8080 };
  Syscall.listen srv ~fd:lfd;
  let cli = Syscall.spawn m ~name:"cli" in
  let cfd = Syscall.socket m cli Socket.Inet Socket.Tcp in
  Alcotest.(check bool) "no listener on wrong port" false
    (Syscall.tcp_connect m cli ~fd:cfd { Socket.host = "0.0.0.0"; port = 9999 });
  Alcotest.(check bool) "syn lands" true
    (Syscall.tcp_connect m cli ~fd:cfd { Socket.host = "0.0.0.0"; port = 8080 });
  match Syscall.accept m srv ~fd:lfd with
  | Some conn ->
      ignore (Syscall.write m srv ~fd:conn "pong");
      Alcotest.(check string) "bytes flow" "pong" (Syscall.read m cli ~fd:cfd ~len:8);
      (match (Syscall.fd_exn srv conn).Fdesc.kind with
      | Fdesc.Socket_fd s -> (
          match Socket.tcp_state s with
          | Socket.Tcp_established e ->
              Alcotest.(check bool) "sequence numbers live" true (e.snd_seq > 0)
          | _ -> Alcotest.fail "not established")
      | _ -> Alcotest.fail "wrong kind")
  | None -> Alcotest.fail "accept returned nothing"

let test_spawn_thread () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let t1 = Syscall.spawn_thread m p in
  let t2 = Syscall.spawn_thread m p in
  Alcotest.(check int) "three threads" 3 (List.length p.Process.threads);
  Alcotest.(check bool) "distinct tids" true
    (t1.Aurora_kern.Thread.tid_global <> t2.Aurora_kern.Thread.tid_global)

let test_aio_write_and_complete () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/f" ~create:true in
  let id = Syscall.aio_write m p ~fd ~off:0 "async data" in
  Alcotest.(check int) "pending" 1 (List.length (Syscall.aio_pending m p));
  let before = Clock.now m.Machine.clock in
  ignore (Syscall.aio_complete m p ~id);
  Alcotest.(check bool) "completion waited" true (Clock.now m.Machine.clock > before);
  Alcotest.(check int) "drained" 0 (List.length (Syscall.aio_pending m p));
  ignore (Syscall.lseek p ~fd ~off:0);
  Alcotest.(check string) "data landed" "async data" (Syscall.read m p ~fd ~len:64)

let test_aio_read_returns_data () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/f" ~create:true in
  ignore (Syscall.write m p ~fd "readable");
  let id = Syscall.aio_read m p ~fd ~off:0 ~len:8 in
  Alcotest.(check string) "read result" "readable" (Syscall.aio_complete m p ~id);
  Alcotest.check_raises "unknown id" (Syscall.Err "EINVAL") (fun () ->
      ignore (Syscall.aio_complete m p ~id:9999))

let test_quiesce_rewinds_sleeping_syscall () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let thr = Process.main_thread p in
  thr.Thread.regs.Thread.rip <- 0x4444;
  thr.Thread.state <- Thread.Sleeping_syscall "read";
  Machine.quiesce m [ p ];
  Alcotest.(check bool) "at boundary" true (thr.Thread.state = Thread.At_boundary);
  Alcotest.(check int) "pc rewound for transparent restart"
    (0x4444 - Thread.syscall_insn_len) thr.Thread.regs.Thread.rip;
  Alcotest.(check int) "restart counted" 1 thr.Thread.syscall_restarts;
  Machine.resume m [ p ];
  Alcotest.(check bool) "running again" true (thr.Thread.state = Thread.Running_user)

let test_quiesce_running_thread_not_rewound () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let thr = Process.main_thread p in
  thr.Thread.regs.Thread.rip <- 0x5555;
  Machine.quiesce m [ p ];
  Alcotest.(check int) "pc untouched" 0x5555 thr.Thread.regs.Thread.rip

let test_anonymous_file () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  let fd = Syscall.open_file m p ~path:"/tmpfile" ~create:true in
  ignore (Syscall.write m p ~fd "temp state");
  Alcotest.(check bool) "unlinked" true (Syscall.unlink m ~path:"/tmpfile");
  let desc = Syscall.fd_exn p fd in
  (match desc.Fdesc.kind with
  | Fdesc.Vnode_file { vn; _ } ->
      Alcotest.(check bool) "anonymous" true (Vnode.is_anonymous vn);
      ignore (Syscall.lseek p ~fd ~off:0);
      Alcotest.(check string) "data still readable" "temp state"
        (Syscall.read m p ~fd ~len:100)
  | _ -> Alcotest.fail "not a file");
  Alcotest.check_raises "name gone" (Syscall.Err "ENOENT") (fun () ->
      ignore (Syscall.open_file m p ~path:"/tmpfile" ~create:false))

let test_pid_virtualization_lookup () =
  let m = machine () in
  let p = Syscall.spawn m ~name:"p" in
  (* Simulate a restore allocating a fresh global pid. *)
  Machine.remove_proc m p.Process.pid_global;
  p.Process.pid_global <- Machine.alloc_pid m;
  Machine.add_proc m p;
  (match Machine.proc_by_local_pid m p.Process.pid_local with
  | Some found -> Alcotest.(check bool) "local pid still resolves" true (found == p)
  | None -> Alcotest.fail "local pid lookup failed");
  Alcotest.(check bool) "signal via local pid" true
    (Syscall.kill m ~pid:p.Process.pid_local ~signo:15)


(* kevent_poll walks only activated knotes.  The reference below is the
   full scan it replaced: every registration checked against the poller's
   fd table. *)
let reference_ready poller kq =
  List.filter
    (fun (ev : Kqueue.kevent) ->
      match Process.fd poller ev.Kqueue.ident with
      | None -> false
      | Some desc -> (
          match (ev.Kqueue.filter, desc.Fdesc.kind) with
          | Kqueue.Ev_read, Fdesc.Socket_fd s -> (
              match Socket.tcp_state s with
              | Socket.Tcp_listening -> Socket.accept_queue_length s > 0
              | Socket.Tcp_established _ | Socket.Tcp_closed ->
                  Socket.recv_buffered s <> [])
          | Kqueue.Ev_read, Fdesc.Pipe_read pipe -> Pipe.buffered pipe > 0
          | Kqueue.Ev_write, Fdesc.Socket_fd _ -> true
          | Kqueue.Ev_write, Fdesc.Pipe_write pipe ->
              Pipe.read_open pipe && Pipe.buffered pipe < Pipe.capacity
          | _ -> false))
    (Kqueue.events kq)

let kq_filters = [| Kqueue.Ev_read; Kqueue.Ev_write; Kqueue.Ev_timer |]
let kq_sizes = [| 1; 100; 40_000; Pipe.capacity |]
let kq_slots = 6

(* [bool] fields pick the forked child, when there is one, as the process
   the operation runs in. *)
type kq_op =
  | Reg of int * int * int  (** ident, filter, udata *)
  | Dereg of int * int
  | Write of bool * int * int  (** slot, size *)
  | Read of bool * int * int
  | Connect of bool
  | Accept of bool
  | Mk_pipe of bool
  | Mk_pair of bool
  | Close of bool * int
  | Dup2 of bool * int * int
  | Fork
  | Switch_poller
  | Restore

let show_kq_op = function
  | Reg (i, f, u) -> Printf.sprintf "Reg(%d,%d,%d)" i f u
  | Dereg (i, f) -> Printf.sprintf "Dereg(%d,%d)" i f
  | Write (c, s, n) -> Printf.sprintf "Write(%b,%d,%d)" c s kq_sizes.(n)
  | Read (c, s, n) -> Printf.sprintf "Read(%b,%d,%d)" c s kq_sizes.(n)
  | Connect c -> Printf.sprintf "Connect(%b)" c
  | Accept c -> Printf.sprintf "Accept(%b)" c
  | Mk_pipe c -> Printf.sprintf "Pipe(%b)" c
  | Mk_pair c -> Printf.sprintf "Socketpair(%b)" c
  | Close (c, s) -> Printf.sprintf "Close(%b,%d)" c s
  | Dup2 (c, a, b) -> Printf.sprintf "Dup2(%b,%d,%d)" c a b
  | Fork -> "Fork"
  | Switch_poller -> "Switch_poller"
  | Restore -> "Restore"

let gen_kq_op =
  let open QCheck.Gen in
  let slot = int_bound (kq_slots - 1) in
  let size = int_bound (Array.length kq_sizes - 1) in
  let filt = int_bound (Array.length kq_filters - 1) in
  frequency
    [
      (5, map3 (fun i f u -> Reg (i, f, u)) slot filt (int_bound 9));
      (2, map2 (fun i f -> Dereg (i, f)) slot filt);
      (6, map3 (fun c s n -> Write (c, s, n)) bool slot size);
      (5, map3 (fun c s n -> Read (c, s, n)) bool slot size);
      (3, map (fun c -> Connect c) bool);
      (3, map (fun c -> Accept c) bool);
      (2, map (fun c -> Mk_pipe c) bool);
      (2, map (fun c -> Mk_pair c) bool);
      (3, map2 (fun c s -> Close (c, s)) bool slot);
      (2, map3 (fun c a b -> Dup2 (c, a, b)) bool slot slot);
      (1, return Fork);
      (1, return Switch_poller);
      (1, return Restore);
    ]

let arb_kq_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_kq_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 1 40) gen_kq_op)

let kq_port = { Socket.host = "0.0.0.0"; port = 80 }

(* Run [ops] on one process (its kqueue at slot 0, a listener at slot 1),
   polling after every step; false at the first poll that differs from
   the reference scan. *)
let kevent_poll_matches_scan ops =
  let module Sls = Aurora_core.Sls in
  let module Group = Aurora_core.Group in
  let module Restore = Aurora_core.Restore in
  let sys = ref (Sls.boot ()) in
  let m () = !sys.Sls.machine in
  let p = ref (Syscall.spawn (m ()) ~name:"srv") in
  let kq_fd = Syscall.kqueue (m ()) !p in
  let lfd = Syscall.socket (m ()) !p Socket.Inet Socket.Tcp in
  Syscall.bind !p ~fd:lfd kq_port;
  Syscall.listen !p ~fd:lfd;
  let group = ref (Sls.attach !sys [ !p ]) in
  let child = ref None in
  let poll_child = ref false in
  let target in_child =
    match !child with Some c when in_child -> c | _ -> !p
  in
  let poller () =
    match !child with Some c when !poll_child -> c | _ -> !p
  in
  let quietly f = try f () with Syscall.Err _ -> () in
  let step = function
    | Reg (ident, f, udata) ->
        Syscall.kevent_register !p ~fd:kq_fd
          { Kqueue.ident; filter = kq_filters.(f); flags = 0; udata }
    | Dereg (ident, f) ->
        Syscall.kevent_deregister !p ~fd:kq_fd ~ident ~filter:kq_filters.(f)
    | Write (c, fd, n) ->
        quietly (fun () ->
            ignore (Syscall.write (m ()) (target c) ~fd (String.make kq_sizes.(n) 'w')))
    | Read (c, fd, n) ->
        quietly (fun () -> ignore (Syscall.read (m ()) (target c) ~fd ~len:kq_sizes.(n)))
    | Connect c ->
        let q = target c in
        let rec lowest_free n =
          if Process.fd q n = None then n else lowest_free (n + 1)
        in
        let expect = lowest_free 0 in
        let fd = Syscall.socket (m ()) q Socket.Inet Socket.Tcp in
        if fd <> expect then failwith "alloc_fd skipped the lowest free slot";
        ignore (Syscall.tcp_connect (m ()) q ~fd kq_port)
    | Accept c ->
        let q = target c in
        List.iter
          (fun (fd, d) ->
            match d.Fdesc.kind with
            | Fdesc.Socket_fd s when Socket.tcp_state s = Socket.Tcp_listening ->
                ignore (Syscall.accept (m ()) q ~fd)
            | _ -> ())
          (Process.fds q)
    | Mk_pipe c -> ignore (Syscall.pipe (m ()) (target c))
    | Mk_pair c -> ignore (Syscall.socketpair (m ()) (target c))
    | Close (c, fd) -> if fd <> kq_fd then quietly (fun () -> Syscall.close (target c) fd)
    | Dup2 (c, src, dst) ->
        if dst <> kq_fd then quietly (fun () -> Syscall.dup2 (target c) ~src ~dst)
    | Fork -> child := Some (Syscall.fork (m ()) !p)
    | Switch_poller -> poll_child := not !poll_child
    | Restore ->
        ignore (Group.checkpoint ~wait_durable:true !group);
        let sys', r = Sls.reboot_and_restore !sys in
        sys := sys';
        group := r.Restore.group;
        p := List.hd r.Restore.procs;
        child := None
  in
  let sorted evs = List.sort compare evs in
  List.for_all
    (fun op ->
      step op;
      let q = poller () in
      let got = Syscall.kevent_poll (m ()) q ~fd:kq_fd in
      let kq =
        match (Syscall.fd_exn q kq_fd).Fdesc.kind with
        | Fdesc.Kqueue_fd kq -> kq
        | _ -> assert false
      in
      sorted got = sorted (reference_ready q kq))
    ops

(* The registration order the list model kept: newest first, and a
   re-registration moves to the front. *)
type kq_model_op = M_reg of int * int * int | M_dereg of int * int | M_replace

let kq_events_match_list_model ops =
  let kq = Kqueue.create (Aurora_sim.Genlog.create ()) in
  let model = ref [] in
  let same ident f (e : Kqueue.kevent) =
    e.Kqueue.ident = ident && e.Kqueue.filter = kq_filters.(f)
  in
  List.for_all
    (fun op ->
      (match op with
      | M_reg (ident, f, udata) ->
          let ev = { Kqueue.ident; filter = kq_filters.(f); flags = 0; udata } in
          Kqueue.register kq ev;
          model := ev :: List.filter (fun e -> not (same ident f e)) !model
      | M_dereg (ident, f) ->
          Kqueue.deregister kq ~ident ~filter:kq_filters.(f);
          model := List.filter (fun e -> not (same ident f e)) !model
      | M_replace ->
          (* A restore loads the serialized list, here rotated. *)
          let evs = match !model with [] -> [] | e :: rest -> rest @ [ e ] in
          Kqueue.replace_events kq evs;
          model := evs);
      Kqueue.events kq = !model && Kqueue.event_count kq = List.length !model)
    ops

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"kevent_poll equals a full readiness scan" ~count:300
         arb_kq_ops kevent_poll_matches_scan);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"kqueue events keep the list model's order" ~count:200
         QCheck.(
           make
             Gen.(
               list_size (int_range 1 60)
                 (frequency
                    [
                      (6, map3 (fun i f u -> M_reg (i, f, u)) (int_bound 7) (int_bound 2)
                            (int_bound 9));
                      (3, map2 (fun i f -> M_dereg (i, f)) (int_bound 7) (int_bound 2));
                      (1, return M_replace);
                    ])))
         kq_events_match_list_model);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"file offsets track random read/write sequences" ~count:100
         QCheck.(list_of_size (Gen.int_range 1 30) (string_of_size (Gen.int_range 0 50)))
         (fun chunks ->
           let m = machine () in
           let p = Syscall.spawn m ~name:"p" in
           let fd = Syscall.open_file m p ~path:"/f" ~create:true in
           List.iter (fun s -> ignore (Syscall.write m p ~fd s)) chunks;
           ignore (Syscall.lseek p ~fd ~off:0);
           let expected = String.concat "" chunks in
           Syscall.read m p ~fd ~len:(String.length expected + 10) = expected));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pipes deliver bytes in order" ~count:100
         QCheck.(list_of_size (Gen.int_range 1 20) (string_of_size (Gen.int_range 0 100)))
         (fun chunks ->
           let m = machine () in
           let p = Syscall.spawn m ~name:"p" in
           let rd, wr = Syscall.pipe m p in
           let written =
             List.fold_left (fun acc s -> acc + Syscall.write m p ~fd:wr s) 0 chunks
           in
           let data = Syscall.read m p ~fd:rd ~len:(written + 10) in
           String.length data = written
           && String.sub (String.concat "" chunks) 0 written = data));
  ]

let () =
  Alcotest.run "aurora_kern"
    [
      ( "process",
        [
          Alcotest.test_case "spawn" `Quick test_spawn_and_pid;
          Alcotest.test_case "fork shares offsets" `Quick test_fork_shares_offset;
          Alcotest.test_case "separate opens" `Quick test_separate_open_independent_offset;
          Alcotest.test_case "fork COW memory" `Quick test_fork_cow_memory;
          Alcotest.test_case "exit/wait/SIGCHLD" `Quick test_exit_wait_sigchld;
          Alcotest.test_case "pid virtualization" `Quick test_pid_virtualization_lookup;
        ] );
      ( "files",
        [
          Alcotest.test_case "write/read" `Quick test_file_write_read;
          Alcotest.test_case "missing fails" `Quick test_open_missing_fails;
          Alcotest.test_case "dup shares offset" `Quick test_dup_shares_offset;
          Alcotest.test_case "anonymous file" `Quick test_anonymous_file;
        ] );
      ( "ipc",
        [
          Alcotest.test_case "pipe" `Quick test_pipe_roundtrip;
          Alcotest.test_case "pipe capacity" `Quick test_pipe_capacity;
          Alcotest.test_case "socketpair" `Quick test_socketpair_messages;
          Alcotest.test_case "SCM_RIGHTS" `Quick test_scm_rights_transfers_descriptor;
          Alcotest.test_case "description registry in flight only" `Quick
            test_description_registry_in_flight_only;
          Alcotest.test_case "kqueue" `Quick test_kqueue_register;
          Alcotest.test_case "kqueue activation" `Quick test_kqueue_activation;
          Alcotest.test_case "pty" `Quick test_pty_echo_path;
          Alcotest.test_case "posix shm" `Quick test_posix_shm_shared_between_processes;
          Alcotest.test_case "sysv shm" `Quick test_sysv_shm;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "device whitelist" `Quick test_device_whitelist;
          Alcotest.test_case "quiesce rewinds sleeper" `Quick test_quiesce_rewinds_sleeping_syscall;
          Alcotest.test_case "quiesce leaves runner" `Quick test_quiesce_running_thread_not_rewound;
          Alcotest.test_case "aio write" `Quick test_aio_write_and_complete;
          Alcotest.test_case "aio read" `Quick test_aio_read_returns_data;
          Alcotest.test_case "dup2" `Quick test_dup2_replaces_slot;
          Alcotest.test_case "setsid/kill" `Quick test_setsid_and_kill;
          Alcotest.test_case "tcp connect/accept" `Quick test_tcp_connect_accept;
          Alcotest.test_case "spawn thread" `Quick test_spawn_thread;
        ] );
      ("properties", qcheck_tests);
    ]
