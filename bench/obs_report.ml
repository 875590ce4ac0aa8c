(* Checkpoint-pipeline observability report: run the standard 100 Hz
   workload with tracing and metrics on, print per-phase latency
   percentiles (virtual time), check the span accounting identity (an
   epoch's children sum to the epoch), and dump the Chrome trace of the
   run to OBS_trace.json plus the final epoch's text timeline. *)

module Clock = Aurora_sim.Clock
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Group = Aurora_core.Group
module Sls = Aurora_core.Sls
module Trace = Aurora_obs.Trace
module Metrics = Aurora_obs.Metrics
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

let run_workload ~epochs =
  let sys = Sls.boot () in
  let machine = sys.Sls.machine in
  let clk = machine.Aurora_kern.Machine.clock in
  let p1 = Syscall.spawn machine ~name:"app" in
  let p2 = Syscall.spawn machine ~name:"worker" in
  let _rd, wr = Syscall.pipe machine p1 in
  let mem1 = Syscall.mmap_anon p1 ~npages:64 in
  let mem2 = Syscall.mmap_anon p2 ~npages:32 in
  let addr1 = Vm_space.addr_of_entry mem1 in
  let addr2 = Vm_space.addr_of_entry mem2 in
  let group = Sls.attach sys [ p1; p2 ] in
  let period = Group.period_ns group in
  Trace.enable ~capacity:(1 lsl 18) ~clock:clk ();
  Metrics.reset ();
  Metrics.set_enabled true;
  let t0 = Clock.now clk in
  let last = ref None in
  for i = 1 to epochs do
    (* Second half of the run: speculative soft-quiesce epochs, so the
       report covers both cycle shapes. *)
    if i = (epochs / 2) + 1 then Group.set_speculative group true;
    (* Application activity for this interval: pipe traffic plus a
       sliding window of dirtied pages. *)
    ignore (Syscall.write machine p1 ~fd:wr (String.make 200 'x'));
    Vm_space.touch_write p1.Process.space
      ~addr:(addr1 + (i mod 16 * 4096))
      ~len:(8 * 4096);
    Vm_space.touch_write p2.Process.space
      ~addr:(addr2 + (i mod 8 * 4096))
      ~len:(4 * 4096);
    Clock.advance_to clk (t0 + (i * period));
    last := Some (Group.checkpoint group)
  done;
  Metrics.set_enabled false;
  (group, Option.get !last)

let phase_table () =
  let table = Text_table.create ~header:[ "phase"; "n"; "p50"; "p99"; "max" ] in
  let row name hist =
    let n, p50, p99, mx = Metrics.summary hist in
    Text_table.add_row table
      [
        name;
        string_of_int n;
        Units.ns_to_string (int_of_float p50);
        Units.ns_to_string (int_of_float p99);
        Units.ns_to_string (int_of_float mx);
      ]
  in
  row "stop window" (Metrics.histogram "ckpt.stop_ns");
  row "  quiesce" (Metrics.histogram "ckpt.quiesce_ns");
  row "  serialize" (Metrics.histogram "ckpt.serialize_ns");
  row "  shadow" (Metrics.histogram "ckpt.shadow_ns");
  row "speculate window" (Metrics.histogram "ckpt.speculate_ns");
  row "  validate (stop)" (Metrics.histogram "ckpt.validate_ns");
  row "flush submit" (Metrics.histogram "ckpt.flush_ns");
  row "durable lag" (Metrics.histogram "ckpt.durable_lag_ns");
  row "dev queue wait" (Metrics.histogram "dev.queue_wait_ns");
  row "dev service" (Metrics.histogram "dev.service_ns");
  row "store flush window" (Metrics.histogram "store.flush_window_ns");
  Text_table.print table

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m = 0 || go 0

let last_epoch_text () =
  let text = Trace.export_text () in
  let lines = String.split_on_char '\n' text in
  let start = ref (-1) in
  List.iteri (fun i l -> if contains l "> ckpt:epoch" then start := i) lines;
  if !start < 0 then text
  else String.concat "\n" (List.filteri (fun i _ -> i >= !start) lines)

let run ~epochs =
  let _group, stats = run_workload ~epochs in
  Printf.printf "obs-report: %d checkpoint epochs at 100 Hz (virtual time)\n\n"
    epochs;
  phase_table ();
  print_newline ();
  (* Accounting identity on the final epoch (its events only: a span
     name that occurs in one cycle shape must not leak in from an earlier
     epoch of the other shape): the epoch span's virtual duration equals
     the sum of its phase children, and stop_ns and flush_ns from
     ckpt_stats match the trace's stop-window phases and flush span. *)
  let all_events = Trace.events () in
  let ph =
    Trace.epoch_partition ~stop_ns:stats.Group.stop_ns
      (Trace.last_epoch all_events)
  in
  let sum = ph.Trace.speculate_ns + ph.Trace.stop_phases_ns + ph.Trace.flush_ns in
  Printf.printf
    "identity: epoch span %s = %s (speculate+quiesce+collapse+serialize+validate+shadow+resume+flush) -> %s\n"
    (Units.ns_to_string ph.Trace.epoch_ns) (Units.ns_to_string sum)
    (if ph.Trace.epoch_ns = sum then "OK" else "MISMATCH");
  Printf.printf
    "identity: ckpt_stats stop_ns %s vs trace stop phases %s; flush_ns %s vs flush span %s\n"
    (Units.ns_to_string stats.Group.stop_ns)
    (Units.ns_to_string ph.Trace.stop_phases_ns)
    (Units.ns_to_string stats.Group.flush_ns)
    (Units.ns_to_string ph.Trace.flush_ns);
  Option.iter (Printf.printf "identity: %s\n") ph.Trace.error;
  let ok =
    ph.Trace.error = None
    && stats.Group.flush_ns = ph.Trace.flush_ns
    && Trace.dropped () = 0
  in
  (* Chrome trace for chrome://tracing / Perfetto. *)
  let oc = open_out "OBS_trace.json" in
  output_string oc (Trace.export_json ());
  close_out oc;
  Printf.printf "\nwrote OBS_trace.json (%d events, %d dropped)\n"
    (List.length all_events) (Trace.dropped ());
  print_endline "\nfinal epoch timeline (virtual ns):";
  print_string (last_epoch_text ());
  Trace.disable ();
  if not ok then begin
    print_endline "obs-report: FAILED accounting identity";
    exit 1
  end

let main mode = run ~epochs:(if mode = Harness.Smoke then 6 else 40)
