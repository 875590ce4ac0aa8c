(* The KV workloads: Memcached_sim under mutilate load with stop-the-world
   checkpoints every 10 ms.

   kv-c288-stw is [Memcached_bench.run]'s closed loop, step for step, on
   500k keys.  kv-crash-restore runs 100k keys under open-loop Poisson
   load, prunes history to two epochs after every checkpoint, and crashes
   the machine about every 100 ms: the array loses its volatile writes,
   [Store.recover] rebuilds the store on a fresh kernel and
   [Restore.restore_verified ~lazy_pages:true] brings the server back.
   Traffic resumes against the restored process, whose arena pages back in
   on demand; requests whose response was lost in the crash are sent
   again, timed from when they were first due.

   The restored server is reached through [Vm_space] at the addresses
   [Memcached_sim] uses (sixteen items per page), since the library only
   builds fresh servers.  Every restored page a GET reads is checked
   against the CRC sampled from the live process at the
   restored epoch. *)

module Clock = Aurora_sim.Clock
module Cost = Aurora_sim.Cost
module Event_queue = Aurora_sim.Event_queue
module Resource = Aurora_sim.Resource
module Histogram = Aurora_util.Histogram
module Rng = Aurora_util.Rng
module Crc32 = Aurora_util.Crc32
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Vm_map = Aurora_vm.Vm_map
module Vm_object = Aurora_vm.Vm_object
module Page = Aurora_vm.Page
module Store = Aurora_objstore.Store
module Striped = Aurora_block.Striped
module Fs = Aurora_fs.Fs
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Memcached_sim = Aurora_apps.Memcached_sim
module Memcached_bench = Aurora_apps.Memcached_bench
module Mutilate = Aurora_workloads.Mutilate

type load = Closed of int | Open of float

type cfg = {
  nkeys : int;
  load : load;
  duration_ns : int;
  period_ns : int;
  seed : int;
  client_sockets : int;  (** server-side sockets of mutilate's closed-loop connections *)
  crash_every_ns : int option;
  keep : int;  (** epochs kept by [Store.prune_history] in the crash arm *)
}

let stw ~seed ~duration_ns =
  {
    nkeys = 500_000;
    load = Closed 288;
    duration_ns;
    period_ns = 10_000_000;
    seed;
    client_sockets = 288;
    crash_every_ns = None;
    keep = 0;
  }

let crash_restore ~seed ~duration_ns =
  {
    nkeys = 100_000;
    load = Open 150_000.0;
    duration_ns;
    period_ns = 10_000_000;
    seed;
    client_sockets = 0;
    crash_every_ns = Some 100_000_000;
    keep = 2;
  }

let reference cfg =
  let o =
    Memcached_bench.run
      {
        Memcached_bench.period_ns = Some cfg.period_ns;
        load =
          (match cfg.load with
          | Closed n -> Memcached_bench.Closed_loop n
          | Open r -> Memcached_bench.Open_poisson r);
        duration_ns = cfg.duration_ns;
        nkeys = cfg.nkeys;
        seed = cfg.seed;
        ext_sync = false;
      }
  in
  [
    ("completed", float_of_int o.Memcached_bench.completed);
    ("throughput_ops", o.Memcached_bench.throughput_ops);
    ("avg_latency_ns", o.Memcached_bench.avg_latency_ns);
    ("p95_latency_ns", o.Memcached_bench.p95_latency_ns);
    ("checkpoints", float_of_int o.Memcached_bench.checkpoints);
    ("avg_stop_ns", o.Memcached_bench.avg_stop_ns);
  ]

(* Memcached_sim's item layout. *)
let items_per_page = 16
let item_bytes = Page.logical_size / items_per_page
let page_of key = key / items_per_page

let item_addr ~base key =
  base + (page_of key * Page.logical_size) + (key mod items_per_page * item_bytes)

(* Client round trip outside the server, as Memcached_bench charges it. *)
let rtt_fixed = (2 * Cost.net_one_way_latency) + (4 * Cost.net_per_message_cpu)

type server = {
  proc : Process.t;
  arena : Vm_map.entry;
  base : int;
  live : Memcached_sim.t option;  (** [None] once restored *)
}

let arena_entry (proc : Process.t) ~pages =
  match
    List.filter
      (fun (e : Vm_map.entry) -> e.Vm_map.npages = pages && e.Vm_map.prot.Vm_map.write)
      (Vm_map.entries (Vm_space.map proc.Process.space))
  with
  | [ e ] -> e
  | l -> failwith (Printf.sprintf "perfbench: %d arena candidates" (List.length l))

let server_of proc ~pages live =
  let arena = arena_entry proc ~pages in
  { proc; arena; base = Vm_space.addr_of_entry arena; live }

(* The payload CRC of arena page [p] as the process sees it now, read
   without faulting (and without charging the machine's clock); [None]
   while a lazily restored page is still in the store. *)
let scratch_clock = Clock.create ()

let page_crc srv p =
  let e = srv.arena in
  match Vm_object.lookup ~clock:scratch_clock e.Vm_map.obj (e.Vm_map.obj_pgoff + p) with
  | Some (page, _) -> Some (Crc32.of_bytes (Page.blit_payload page))
  | None -> None

let apply srv op =
  match (srv.live, op) with
  | Some app, Mutilate.Get key -> Calls.kv_get app key
  | Some app, Mutilate.Set (key, value_bytes) -> Calls.kv_set app key ~value_bytes
  | None, Mutilate.Get key ->
      Calls.vm_read srv.proc.Process.space ~key ~addr:(item_addr ~base:srv.base key)
  | None, Mutilate.Set (key, value_bytes) ->
      Calls.vm_write srv.proc.Process.space ~key
        ~addr:(item_addr ~base:srv.base key)
        ~len:(max 1 (min value_bytes item_bytes))

type event = Request of int * Mutilate.op option | Ckpt_due | Crash

let run ~setup_only cfg =
  let crashing = cfg.crash_every_ns <> None in
  let host_setup0 = Probe.cpu_s () in
  let sys = Calls.boot () in
  let clk = sys.Sls.machine.Machine.clock in
  let app = Calls.kv_create ~machine:sys.Sls.machine ~nkeys:cfg.nkeys in
  let p = Memcached_sim.proc app in
  for _ = 1 to cfg.client_sockets do
    ignore (Syscall.socket sys.Sls.machine p Aurora_kern.Socket.Inet Aurora_kern.Socket.Tcp)
  done;
  let workload = Mutilate.create ~nkeys:cfg.nkeys ~seed:cfg.seed () in
  for key = 0 to cfg.nkeys - 1 do
    Calls.kv_set app key ~value_bytes:Mutilate.mean_value_bytes
  done;
  let pages = Memcached_sim.arena_pages app in
  let group = ref (Calls.attach ~period_ns:cfg.period_ns sys [ p ]) in
  let first = Calls.checkpoint ~wait_durable:true !group in
  let setup_s = Probe.cpu_s () -. host_setup0 in
  if setup_only then begin
    Report.h "setup_s" "s" setup_s;
    raise Report.Setup_done
  end;
  let srv = ref (server_of p ~pages (Some app)) in
  let store = ref sys.Sls.store in
  (* The CRC model (crash arm only): the live CRC of every arena page,
     pages written since the last checkpoint, a copy per recent epoch,
     and the epochs' durability times. *)
  let crc_live = Array.make (if crashing then pages else 0) 0 in
  let written = Array.make (Array.length crc_live) false in
  let fresh = Array.make (Array.length crc_live) false in
  let snaps = Hashtbl.create 16 in
  let durable = ref [] in
  let snapshot (s : Group.ckpt_stats) =
    Array.iteri
      (fun pg w ->
        if w then begin
          written.(pg) <- false;
          match page_crc !srv pg with Some c -> crc_live.(pg) <- c | None -> ()
        end)
      written;
    Hashtbl.replace snaps s.Group.epoch (Array.copy crc_live);
    Hashtbl.remove snaps (s.Group.epoch - 8);
    durable := (s.Group.epoch, s.Group.durable_at) :: !durable
  in
  if crashing then begin
    Array.fill written 0 pages true;
    snapshot first
  end;
  let server = Resource.create ~name:"memcached-workers" in
  let q : event Event_queue.t = Event_queue.create () in
  let rng = Rng.create (cfg.seed + 17) in
  let latencies = Histogram.create () in
  let waits = Histogram.create () in
  let epochs = Epochs.create () in
  let completed = ref 0 in
  let checkpoints = ref 0 in
  let t_start = Clock.now clk in
  let warmup_until = t_start + (cfg.duration_ns / 5) in
  let t_end = t_start + cfg.duration_ns in
  (* Each crash comes an uptime after the previous recovery finished; the
     uptime is jittered across a checkpoint period so crashes land at
     every phase of the flush. *)
  let jitter = Rng.create (cfg.seed + 29) in
  let uptime () =
    match cfg.crash_every_ns with
    | None -> max_int
    | Some every -> every - Rng.int_in jitter 0 (cfg.period_ns - 1)
  in
  let next_crash = ref (if crashing then t_start + uptime () else max_int) in
  let attempted = ref 0 and failed = ref 0 in
  let failures = Hashtbl.create 4 in
  let retried = ref 0 in
  let fault_ns = ref 0 and ops = ref 0 in
  let pagein_ns = ref 0 and pageins = ref 0 in
  let crc_checked = ref 0 and crc_bad = ref 0 in
  let recoveries = Histogram.create () in
  let recover_v = Histogram.create () in
  let restore_v = Histogram.create () in
  let awaiting = ref None in
  let wrong_epoch = ref 0 and crashes = ref 0 in
  let vm_retired = ref Vm_stats.zero in
  (* The array zeroes its counters when it crashes. *)
  let dev_retired = ref (0, 0) in
  let dev_now () =
    let w, r = !dev_retired in
    (w + Striped.bytes_written sys.Sls.device, r + Striped.bytes_read sys.Sls.device)
  in
  let vm_now () = Vm_stats.add !vm_retired (Vm_stats.snapshot !srv.proc.Process.space) in
  let handle time = function
    | Request (due, retry) -> (
        let op =
          match retry with
          | Some op -> op
          | None ->
              if due >= warmup_until then incr attempted;
              Mutilate.next workload
        in
        let measured = due >= warmup_until in
        let space = !srv.proc.Process.space in
        let pi0 = (Vm_space.stats space).Vm_space.pageins in
        let t0 = Clock.now clk in
        let outcome = match apply !srv op with () -> Ok () | exception Store.Corrupt_store m -> Error m in
        let op_ns = Clock.now clk - t0 in
        let duration = Memcached_sim.base_service_ns + op_ns in
        let start, completion = Resource.submit_timed server ~now:time ~duration in
        if measured then begin
          fault_ns := !fault_ns + op_ns;
          incr ops;
          let pi = (Vm_space.stats space).Vm_space.pageins - pi0 in
          if pi > 0 then begin
            pagein_ns := !pagein_ns + op_ns;
            pageins := !pageins + pi
          end
        end;
        match outcome with
        | Error msg ->
            if measured then begin
              incr failed;
              let key = try String.sub msg 0 (String.index msg ' ') with Not_found -> msg in
              Hashtbl.replace failures key (1 + Option.value ~default:0 (Hashtbl.find_opt failures key))
            end
        | Ok () ->
            let key = match op with Mutilate.Get k | Mutilate.Set (k, _) -> k in
            if crashing then begin
              let pg = page_of key in
              match op with
              | Mutilate.Set _ ->
                  written.(pg) <- true;
                  fresh.(pg) <- false
              | Mutilate.Get _ ->
                  if fresh.(pg) then begin
                    fresh.(pg) <- false;
                    incr crc_checked;
                    match page_crc !srv pg with
                    | Some c when c = crc_live.(pg) -> ()
                    | Some _ | None -> incr crc_bad
                  end
            end;
            if completion > !next_crash then begin
              (* The response was still queued when the machine died: the
                 client sends the request again to the restored server. *)
              incr retried;
              Event_queue.schedule q ~time:!next_crash (Request (due, Some op))
            end
            else begin
              (match !awaiting with
              | Some t_crash ->
                  awaiting := None;
                  if t_crash >= warmup_until then
                    Histogram.add recoveries (float_of_int (completion - t_crash))
              | None -> ());
              let latency = completion - due + rtt_fixed in
              if measured then begin
                Histogram.add latencies (float_of_int latency);
                Histogram.add waits (float_of_int (start - time));
                incr completed
              end;
              match cfg.load with
              | Closed _ ->
                  if completion + rtt_fixed < t_end then
                    Event_queue.schedule q ~time:(completion + rtt_fixed) (Request (completion + rtt_fixed, None))
              | Open _ -> ()
            end)
    | Ckpt_due ->
        let stats = Calls.checkpoint !group in
        incr checkpoints;
        let measured = time >= warmup_until in
        Epochs.record epochs ~measured ~now:(Clock.now clk) stats;
        ignore (Resource.submit server ~now:time ~duration:stats.Group.stop_ns);
        if crashing then begin
          snapshot stats;
          Calls.prune !store ~keep:cfg.keep
        end;
        if time + cfg.period_ns < t_end then
          Event_queue.schedule q ~time:(time + cfg.period_ns) Ckpt_due
    | Crash ->
        incr crashes;
        vm_retired := vm_now ();
        dev_retired := dev_now ();
        Calls.crash sys.Sls.device ~now:time;
        let machine = Machine.create ~clock:clk () in
        let v0 = Clock.now clk in
        let st = Calls.recover ~dev:sys.Sls.device ~clock:clk in
        let v1 = Clock.now clk in
        let vr =
          match Calls.restore_verified ~machine ~store:st with
          | Ok vr -> vr
          | Error e -> failwith ("perfbench: no restorable epoch: " ^ Restore.pp_restore_error e)
        in
        let v2 = Clock.now clk in
        if time >= warmup_until then begin
          Histogram.add recover_v (float_of_int (v1 - v0));
          Histogram.add restore_v (float_of_int (v2 - v1))
        end;
        (* The newest epoch whose superblock was on the array at the crash. *)
        let expected =
          List.fold_left
            (fun acc (e, at) -> if at <= time then max acc e else acc)
            0 !durable
        in
        if vr.Restore.vr_epoch <> expected then incr wrong_epoch;
        let r = vr.Restore.vr_result in
        (match r.Restore.fs with
        | Some _ -> ()
        | None -> Machine.mount machine (Fs.vfs_ops (Fs.create ~store:st)));
        group := r.Restore.group;
        store := st;
        (match r.Restore.procs with
        | [ proc ] -> srv := server_of proc ~pages None
        | l -> failwith (Printf.sprintf "perfbench: restored %d processes" (List.length l)));
        (match Hashtbl.find_opt snaps vr.Restore.vr_epoch with
        | Some snap -> Array.blit snap 0 crc_live 0 pages
        | None -> incr wrong_epoch);
        Array.fill written 0 pages false;
        Array.fill fresh 0 pages true;
        durable := List.filter (fun (e, _) -> e <= vr.Restore.vr_epoch) !durable;
        Resource.reset server;
        ignore (Resource.submit server ~now:time ~duration:(Clock.now clk - time));
        awaiting := Some time;
        let up = uptime () in
        next_crash := if Clock.now clk + up < t_end then Clock.now clk + up else max_int;
        if !next_crash < max_int then Event_queue.schedule q ~time:!next_crash Crash
  in
  (match cfg.load with
  | Closed conns ->
      for i = 0 to conns - 1 do
        let t = t_start + (i * 100) in
        Event_queue.schedule q ~time:t (Request (t, None))
      done
  | Open rate ->
      let t = ref t_start in
      while !t < t_end do
        t := !t + int_of_float (Rng.exponential rng ~mean:(1e9 /. rate));
        if !t < t_end then Event_queue.schedule q ~time:!t (Request (!t, None))
      done);
  Event_queue.schedule q ~time:(t_start + cfg.period_ns) Ckpt_due;
  if !next_crash < t_end then Event_queue.schedule q ~time:!next_crash Crash;
  let events = ref 0 in
  let in_window = ref false in
  let host0 = ref 0 and cpu0 = ref 0.0 and words0 = ref 0.0 in
  let vm0 = ref Vm_stats.zero in
  let dev0 = ref (0, 0) in
  Event_queue.run q ~clock:clk ~until:t_end ~handler:(fun time ev ->
      if (not !in_window) && time >= warmup_until then begin
        in_window := true;
        vm0 := vm_now ();
        dev0 := dev_now ();
        Probe.open_window ();
        words0 := Gc.minor_words ();
        host0 := Probe.now_ns ();
        cpu0 := Probe.cpu_s ()
      end;
      if !in_window then incr events;
      handle time ev);
  let host_s = float_of_int (Probe.now_ns () - !host0) /. 1e9 in
  let cpu_s = Probe.cpu_s () -. !cpu0 in
  let words = Gc.minor_words () -. !words0 in
  Probe.close_window ();
  let measured_ns = max 1 (min (Clock.now clk) t_end - warmup_until) in
  let n = Histogram.count latencies in
  let us x = x /. 1e3 and ms x = x /. 1e6 in
  Report.v ~samples:n "req_p50_us" "us" (us (Histogram.percentile latencies 50.0));
  Report.v ~samples:n "req_p99_us" "us" (us (Histogram.percentile latencies 99.0));
  Report.v ~samples:n "req_mean_us" "us" (us (Histogram.mean latencies));
  Report.v ~samples:n "goodput_rps" "1/s"
    (float_of_int !completed /. (float_of_int measured_ns /. 1e9));
  Report.h ~samples:n "sim_rps" "1/s" (float_of_int !completed /. cpu_s);
  Report.h "setup_s" "s" setup_s;
  Report.h ~samples:n "words_per_req" "words" (words /. float_of_int (max 1 n));
  let nrec = Histogram.count recoveries in
  Report.v ~samples:nrec "recovery_ms" "ms" (ms (Histogram.percentile recoveries 50.0));
  Report.v ~samples:(Histogram.count waits) "apps.worker_wait_us" "us"
    (us (Histogram.percentile waits 99.0));
  Report.v ~samples:!ops "vm.fault_ns_per_op" "ns" (float_of_int !fault_ns /. float_of_int (max 1 !ops));
  Vm_stats.report (Vm_stats.diff (vm_now ()) !vm0);
  Report.v ~samples:!pageins "vm.pagein_ns" "ns"
    (float_of_int !pagein_ns /. float_of_int (max 1 !pageins));
  Epochs.report epochs;
  Report.v ~samples:(Histogram.count restore_v) "core.restore_ms" "ms"
    (ms (Histogram.percentile restore_v 50.0));
  Report.v ~samples:(Histogram.count recover_v) "objstore.recover_ms" "ms"
    (ms (Histogram.percentile recover_v 50.0));
  let w1, r1 = dev_now () and w0, r0 = !dev0 in
  Report.v "block.bytes_written" "bytes" (float_of_int (w1 - w0));
  Report.v "block.bytes_read" "bytes" (float_of_int (r1 - r0));
  Report.absent "net.bytes" "bytes";
  Report.v "sim.events" "count" (float_of_int !events);
  Report.v "sim.crashes" "count" (float_of_int !crashes);
  Report.v "sim.retried" "count" (float_of_int !retried);
  Report.v "sim.crc_pages_checked" "count" (float_of_int !crc_checked);
  Hashtbl.iter
    (fun k c -> Report.v ("sim.failures." ^ k) "count" (float_of_int c))
    failures;
  Epochs.check epochs;
  if crashing then begin
    Report.check "every restored page read matches its CRC at the restored epoch"
      (!crc_bad = 0 && !crc_checked > 0)
      (Printf.sprintf "%d of %d first reads mismatch" !crc_bad !crc_checked);
    Report.check "each crash restores the newest durable epoch" (!wrong_epoch = 0)
      (Printf.sprintf "%d of %d restores picked another epoch" !wrong_epoch !crashes)
  end;
  Report.attempted := !attempted;
  Report.failed := !failed;
  Report.set_outcome
    [
      ("completed", float_of_int !completed);
      ( "throughput_ops",
        float_of_int !completed /. (float_of_int measured_ns /. 1e9) );
      ("avg_latency_ns", Histogram.mean latencies);
      ("p95_latency_ns", Histogram.percentile latencies 95.0);
      ("checkpoints", float_of_int !checkpoints);
      ("avg_stop_ns", Histogram.mean epochs.Epochs.stop);
    ];
  host_s
