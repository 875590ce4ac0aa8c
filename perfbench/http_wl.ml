(* http-c1k-spec: the HTTP tier with 1024 keep-alive connections under
   speculative checkpoints every 10 ms.

   The event loop is [Http_sim.run]'s, step for step, with every call into
   the program behind a probe.  [Http_sim.t] keeps its worker pool
   private, so this loop owns an identical pool (four FCFS workers, the
   least-loaded one chosen the way the server chooses) and hands each
   request's worker to [Http_sim.feed ?on].  That lets it charge the stop
   window to the pool from outside and read each request's queue wait. *)

module Clock = Aurora_sim.Clock
module Event_queue = Aurora_sim.Event_queue
module Resource = Aurora_sim.Resource
module Histogram = Aurora_util.Histogram
module Machine = Aurora_kern.Machine
module Process = Aurora_kern.Process
module Link = Aurora_net.Link
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Http_sim = Aurora_apps.Http_sim
module Http_load = Aurora_workloads.Http_load

let config ~seed ~duration_ns =
  {
    Http_sim.default_config with
    seed;
    conns = 1024;
    rate = 30_000.0;
    duration_ns;
    period_ns = Some 10_000_000;
    speculative = true;
    dynamic_ratio = 0.3;
    probe_interval_ns = 2_500_000;
  }

let reference (cfg : Http_sim.config) =
  let o = Http_sim.run cfg in
  [
    ("completed", float_of_int o.Http_sim.completed);
    ("p50_ns", o.Http_sim.p50_ns);
    ("p99_ns", o.Http_sim.p99_ns);
    ("p999_ns", o.Http_sim.p999_ns);
    ("checkpoints", float_of_int o.Http_sim.checkpoints);
    ("avg_stop_ns", o.Http_sim.avg_stop_ns);
    ("hook_ops", float_of_int o.Http_sim.hook_ops);
    ("reconnects", float_of_int o.Http_sim.reconnects);
  ]

(* [last] marks the segment that completes a request on the wire. *)
type event = Deliver of int * string * int * bool | Ckpt_due | Probe_conn of int

let least_loaded workers =
  let best = ref workers.(0) in
  Array.iter (fun w -> if Resource.next_free w < Resource.next_free !best then best := w) workers;
  !best

let run ~setup_only (cfg : Http_sim.config) =
  let period = Option.get cfg.Http_sim.period_ns in
  let host_setup0 = Probe.cpu_s () in
  let sys = Calls.boot () in
  let machine = sys.Sls.machine in
  let clk = machine.Machine.clock in
  let srv =
    Calls.http_create ~machine ~workers:cfg.Http_sim.workers
      ~dynamic_pages:cfg.Http_sim.dynamic_pages
  in
  let workers =
    Array.init (max 1 cfg.Http_sim.workers) (fun i ->
        Resource.create ~name:(Printf.sprintf "httpd-worker-%d" i))
  in
  let link_up = Link.create ~name:"http-link-up" () in
  let link_down = Link.create ~name:"http-link-down" () in
  let slots = Array.init cfg.Http_sim.conns (fun _ -> Calls.connect srv) in
  let reconnects = ref 0 in
  let hook_ops = ref 0 in
  (* Requests that got other than exactly one response on their own
     connection. *)
  let bad_responses = ref 0 in
  let expect_one (c : Http_sim.conn) responses =
    match responses with
    | [ r ] when r.Http_sim.r_conn = c.Http_sim.c_id -> ()
    | _ -> incr bad_responses
  in
  let group = Calls.attach ~period_ns:period sys [ Http_sim.proc srv ] in
  ignore (Calls.checkpoint ~wait_durable:true group);
  Group.set_speculative group cfg.Http_sim.speculative;
  let spare = Resource.create ~name:"httpd-spare-core" in
  let hook_conn = ref (Calls.connect srv) in
  let hook_route = ref 0 in
  Calls.set_run_hook machine
    (Some
       (fun window_ns ->
         let n = max 1 (window_ns / 150_000) in
         for _ = 1 to n do
           if !hook_conn.Http_sim.c_closed then hook_conn := Calls.connect srv;
           let route = Http_load.Dynamic (!hook_route mod cfg.Http_sim.dynamic_routes) in
           incr hook_route;
           let c = !hook_conn in
           expect_one c
             (Calls.feed ~on:spare srv c ~now:(Clock.now clk) (Http_sim.request route));
           incr hook_ops
         done));
  let setup_s = Probe.cpu_s () -. host_setup0 in
  if setup_only then begin
    Report.h "setup_s" "s" setup_s;
    raise Report.Setup_done
  end;
  let q : event Event_queue.t = Event_queue.create () in
  let latencies = Histogram.create () in
  let waits = Histogram.create () in
  let epochs = Epochs.create () in
  let completed = ref 0 in
  let checkpoints = ref 0 in
  let t_start = Clock.now clk in
  let warmup_until = t_start + (cfg.Http_sim.duration_ns / 5) in
  let t_end = t_start + cfg.Http_sim.duration_ns in
  let inflight = Array.init cfg.Http_sim.conns (fun _ -> Queue.create ()) in
  let schedule =
    Http_load.generate ~seed:cfg.Http_sim.seed ~rate:cfg.Http_sim.rate
      ~duration_ns:cfg.Http_sim.duration_ns ~conns:cfg.Http_sim.conns
      ~static_routes:cfg.Http_sim.static_routes ~dynamic_routes:cfg.Http_sim.dynamic_routes
      ~dynamic_ratio:cfg.Http_sim.dynamic_ratio ()
  in
  let net_bytes = ref 0 in
  let deliver link ~now ~bytes =
    net_bytes := !net_bytes + bytes;
    Calls.delivery_time link ~now ~bytes
  in
  List.iter
    (fun r ->
      let send_t = t_start + r.Http_load.hl_time in
      let payload = Http_sim.request r.Http_load.hl_route in
      if r.Http_load.hl_frag then begin
        let cut = String.length payload / 2 in
        let seg1 = String.sub payload 0 cut in
        let seg2 = String.sub payload cut (String.length payload - cut) in
        let a1 = deliver link_up ~now:send_t ~bytes:cut in
        let a2 = deliver link_up ~now:(send_t + 1_500) ~bytes:(String.length payload - cut) in
        Event_queue.schedule q ~time:a1 (Deliver (r.Http_load.hl_conn, seg1, send_t, false));
        Event_queue.schedule q ~time:(max a2 (a1 + 1))
          (Deliver (r.Http_load.hl_conn, seg2, send_t, true))
      end
      else
        let arrival = deliver link_up ~now:send_t ~bytes:(String.length payload) in
        Event_queue.schedule q ~time:arrival (Deliver (r.Http_load.hl_conn, payload, send_t, true)))
    schedule;
  Event_queue.schedule q ~time:(t_start + period) Ckpt_due;
  if cfg.Http_sim.probe_interval_ns > 0 then
    for i = 0 to cfg.Http_sim.conns - 1 do
      Event_queue.schedule q
        ~time:(t_start + (i * cfg.Http_sim.probe_interval_ns / cfg.Http_sim.conns))
        (Probe_conn i)
    done;
  let space = (Http_sim.proc srv).Process.space in
  let vm0 = ref (Vm_stats.snapshot space) in
  let attempted = ref 0 in
  let feed_ns = ref 0 and feeds = ref 0 in
  let events = ref 0 in
  let host0 = ref 0 and cpu0 = ref 0.0 in
  let words0 = ref 0.0 in
  let in_window = ref false in
  let handle time = function
    | Deliver (slot, bytes, send_t, last) ->
        let conn =
          if slots.(slot).Http_sim.c_closed then begin
            incr reconnects;
            let c = Calls.connect srv in
            slots.(slot) <- c;
            c
          end
          else slots.(slot)
        in
        let worker = least_loaded workers in
        let free_before = Resource.next_free worker in
        let before = conn.Http_sim.c_served in
        let v0 = Clock.now clk in
        let responses = Calls.feed ~on:worker srv conn ~now:time bytes in
        let measured = send_t >= warmup_until in
        if measured then begin
          feed_ns := !feed_ns + (Clock.now clk - v0);
          incr feeds
        end;
        let finished = conn.Http_sim.c_served - before in
        if finished > 0 then Queue.push send_t inflight.(slot);
        if last then begin
          incr attempted;
          expect_one conn responses
        end
        else if responses <> [] then incr bad_responses;
        List.iter
          (fun r ->
            let sent =
              if Queue.is_empty inflight.(slot) then begin
                incr bad_responses;
                send_t
              end
              else Queue.pop inflight.(slot)
            in
            let back = deliver link_down ~now:r.Http_sim.r_done ~bytes:r.Http_sim.r_bytes in
            if sent >= warmup_until then begin
              Histogram.add latencies (float_of_int (back - sent));
              Histogram.add waits (float_of_int (max time free_before - time));
              incr completed
            end)
          responses
    | Ckpt_due ->
        let stats = Calls.checkpoint group in
        incr checkpoints;
        let measured = time >= warmup_until in
        Epochs.record epochs ~measured ~now:(Clock.now clk) stats;
        Array.iter
          (fun w -> ignore (Resource.submit w ~now:time ~duration:stats.Group.stop_ns))
          workers;
        if time + period < t_end then Event_queue.schedule q ~time:(time + period) Ckpt_due
    | Probe_conn slot ->
        Calls.keepalive srv slots.(slot);
        if time + cfg.Http_sim.probe_interval_ns < t_end then
          Event_queue.schedule q ~time:(time + cfg.Http_sim.probe_interval_ns) (Probe_conn slot)
  in
  let bytes_written0 = ref 0 and bytes_read0 = ref 0 in
  let net0 = ref 0 in
  Event_queue.run q ~clock:clk ~until:t_end ~handler:(fun time ev ->
      if (not !in_window) && time >= warmup_until then begin
        in_window := true;
        vm0 := Vm_stats.snapshot space;
        bytes_written0 := Aurora_block.Striped.bytes_written sys.Sls.device;
        bytes_read0 := Aurora_block.Striped.bytes_read sys.Sls.device;
        net0 := !net_bytes;
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
  Calls.set_run_hook machine None;
  let measured_ns = max 1 (min (Clock.now clk) t_end - warmup_until) in
  let n = Histogram.count latencies in
  let us x = x /. 1e3 in
  Report.v ~samples:n "req_p50_us" "us" (us (Histogram.percentile latencies 50.0));
  Report.v ~samples:n "req_p99_us" "us" (us (Histogram.percentile latencies 99.0));
  Report.v ~samples:n "req_mean_us" "us" (us (Histogram.mean latencies));
  Report.v ~samples:n "goodput_rps" "1/s"
    (float_of_int !completed /. (float_of_int measured_ns /. 1e9));
  Report.h ~samples:n "sim_rps" "1/s" (float_of_int !completed /. cpu_s);
  Report.h "setup_s" "s" setup_s;
  Report.h ~samples:n "words_per_req" "words" (words /. float_of_int (max 1 n));
  Report.v ~samples:(Histogram.count waits) "apps.worker_wait_us" "us"
    (us (Histogram.percentile waits 99.0));
  Report.v ~samples:!feeds "vm.fault_ns_per_op" "ns"
    (float_of_int !feed_ns /. float_of_int (max 1 !feeds));
  Vm_stats.report (Vm_stats.diff (Vm_stats.snapshot space) !vm0);
  Report.absent "vm.pagein_ns" "ns";
  Epochs.report epochs;
  Report.absent "recovery_ms" "ms";
  Report.absent "core.restore_ms" "ms";
  Report.absent "objstore.recover_ms" "ms";
  Report.v "block.bytes_written" "bytes"
    (float_of_int (Aurora_block.Striped.bytes_written sys.Sls.device - !bytes_written0));
  Report.v "block.bytes_read" "bytes"
    (float_of_int (Aurora_block.Striped.bytes_read sys.Sls.device - !bytes_read0));
  Report.v "net.bytes" "bytes" (float_of_int (!net_bytes - !net0));
  Report.v "sim.events" "count" (float_of_int !events);
  Report.v "sim.hook_ops" "count" (float_of_int !hook_ops);
  Report.check "every HTTP request gets exactly one response on its connection"
    (!bad_responses = 0)
    (Printf.sprintf "%d requests without exactly one response" !bad_responses);
  Array.iteri
    (fun slot fifo ->
      if not (Queue.is_empty fifo) then
        Report.check
          (Printf.sprintf "connection slot %d has no unanswered requests" slot)
          false
          (Printf.sprintf "%d left" (Queue.length fifo)))
    inflight;
  Epochs.check epochs;
  Report.attempted := !attempted + !hook_ops;
  Report.failed := !bad_responses;
  Report.set_outcome
    [
      ("completed", float_of_int !completed);
      ("p50_ns", Histogram.percentile latencies 50.0);
      ("p99_ns", Histogram.percentile latencies 99.0);
      ("p999_ns", Histogram.percentile latencies 99.9);
      ("checkpoints", float_of_int !checkpoints);
      ("avg_stop_ns", Histogram.mean epochs.Epochs.stop);
      ("hook_ops", float_of_int !hook_ops);
      ("reconnects", float_of_int !reconnects);
    ];
  host_s
