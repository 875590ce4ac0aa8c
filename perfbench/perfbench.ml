(* One benchmark process: a single workload at a single seed, in a fresh
   process so the program's process-global counters start from zero.

     perfbench.exe MODE --workload NAME --seed N [--duration-ms D]
                   [--trace] [--out DIR]

   MODE is [measure] (the whole run), [setup] (set-up only, for the
   set-up time) or [reference] (the library's own runner on the same
   config, for the reproduction check).  The last line of stdout is one
   JSON object; perfbench/run.py aggregates processes into a result. *)

module Trace = Aurora_obs.Trace
module Metrics = Aurora_obs.Metrics

let workloads = [ "http-c1k-spec"; "kv-c288-stw"; "kv-crash-restore" ]

(* Virtual length of each workload: the first fifth is warm-up, and the
   measured rest holds at least 100 checkpoint epochs (about 20 crashes
   for kv-crash-restore, so its tail latency is steady across seeds). *)
let default_duration_ms = function
  | "http-c1k-spec" | "kv-c288-stw" -> 1250
  | _ -> 2500

let usage () =
  prerr_endline
    ("usage: perfbench.exe measure|setup|reference --workload "
    ^ String.concat "|" workloads
    ^ " --seed N [--duration-ms D] [--trace] [--out DIR]");
  exit 2

(* Per-layer host cost, read from the probes after a traced run. *)
let report_host_layers ~host_s =
  let open Calls in
  let us name k = Report.h ~samples:(Probe.calls k) name "us" (Probe.host_us_per_call k) in
  let ms name k = Report.h ~samples:(Probe.calls k) name "ms" (Probe.host_ms_per_call k) in
  let words name k = Report.h ~samples:(Probe.calls k) name "words" (Probe.words_per_call k) in
  us "kern.keepalive_host_us" k_keepalive;
  us "kern.connect_host_us" k_connect;
  words "kern.words_per_keepalive" k_keepalive;
  us "apps.feed_host_us" k_feed;
  words "apps.words_per_feed" k_feed;
  us "apps.kv_op_host_us" k_kv_op;
  us "vm.op_host_us" k_vm_op;
  ms "core.ckpt_host_ms" k_checkpoint;
  words "core.words_per_ckpt" k_checkpoint;
  ms "core.restore_host_ms" k_restore;
  ms "objstore.recover_host_ms" k_recover;
  ms "objstore.prune_host_ms" k_prune;
  us "net.delivery_host_us" k_delivery;
  Array.iter
    (fun layer -> Report.h (layer ^ ".self_ms") "ms" (Probe.layer_self_ms layer))
    Probe.layers;
  Report.h "sim.other_host_ms" "ms" ((host_s *. 1e3) -. Probe.wrapped_ms ());
  Report.h "obs.trace_dropped" "count" (float_of_int (Trace.dropped () + !Probe.dropped))

let write_traces ~dir ~workload =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat dir (workload ^ ".trace.json") in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"hostSpans\":";
  Probe.write_spans oc;
  output_string oc ",\n\"virtual\":";
  output_string oc (Trace.export_json ());
  output_string oc "}\n";
  close_out oc;
  let oc = open_out (Filename.concat dir (workload ^ ".metrics.txt")) in
  output_string oc (Metrics.report ());
  close_out oc

let () =
  let args = Array.to_list Sys.argv in
  let mode = match args with _ :: m :: _ -> m | _ -> usage () in
  let workload = ref "" and seed = ref None and duration_ms = ref 0 in
  let traced = ref false and out = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string_opt n;
        parse rest
    | "--duration-ms" :: d :: rest ->
        duration_ms := Option.value ~default:0 (int_of_string_opt d);
        parse rest
    | "--trace" :: rest ->
        traced := true;
        parse rest
    | "--out" :: d :: rest ->
        out := d;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (List.tl args));
  let seed = match !seed with Some s -> s | None -> usage () in
  if not (List.mem !workload workloads) then usage ();
  let duration_ns =
    1_000_000 * if !duration_ms > 0 then !duration_ms else default_duration_ms !workload
  in
  let workload = !workload in
  if !traced then begin
    Probe.enable ();
    Metrics.set_enabled true
  end;
  let http () = Http_wl.config ~seed ~duration_ns in
  let kv () =
    if workload = "kv-c288-stw" then Kv_wl.stw ~seed ~duration_ns
    else Kv_wl.crash_restore ~seed ~duration_ns
  in
  let run ~setup_only =
    match workload with
    | "http-c1k-spec" -> Http_wl.run ~setup_only (http ())
    | _ -> Kv_wl.run ~setup_only (kv ())
  in
  (match mode with
  | "measure" ->
      let host_s = run ~setup_only:false in
      Report.h "peak_heap_mb" "MB"
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0);
      if !traced then begin
        report_host_layers ~host_s;
        if !out <> "" then write_traces ~dir:!out ~workload
      end
  | "setup" -> ( try ignore (run ~setup_only:true) with Report.Setup_done -> ())
  | "reference" -> (
      match workload with
      | "http-c1k-spec" -> Report.set_outcome (Http_wl.reference (http ()))
      | "kv-c288-stw" -> Report.set_outcome (Kv_wl.reference (kv ()))
      | _ ->
          prerr_endline "perfbench: kv-crash-restore has no library runner to compare with";
          exit 2)
  | _ -> usage ());
  print_endline (Report.to_json ~workload ~seed ~traced:!traced)
