(* Speculative soft-quiesce A/B: stop-window time, STW vs speculative.

   A memcached-shaped service — a key arena plus many per-connection
   sockets whose buffers must be serialized every cycle — checkpoints at
   100 Hz while a mutilate-style zipfian client mutates a sweep of
   arena fractions per interval.  Each configuration runs the identical
   deterministic foreground trace twice:

   - STW: the classic cycle; the OS serialize pass runs inside the stop
     window, so every connection's fd costs stop time;
   - speculative: the serialize pass and page harvest run concurrently
     with execution on a spare core (a run hook keeps serving requests
     whenever a soft-quiesce yield window opens), and the stop window
     shrinks to quiesce + conflict validation.

   The speculative arm also reports the requests the hook served *during*
   checkpointing — application progress the STW arm forfeits — and the
   conflict set the validator re-copied.  A separate hookless pair run
   checks byte-identity: a speculative epoch followed by a forced-full
   one with no intervening ops must hold identical objects, metadata and
   page checksums.

   Emits BENCH_ckpt_spec.json.

     dune exec bench/main.exe ckpt_spec          # full sweep
     dune exec bench/main.exe ckpt_spec smoke    # tiny CI pass (>= 5x gate) *)

module Clock = Aurora_sim.Clock
module Process = Aurora_kern.Process
module Syscall = Aurora_kern.Syscall
module Vm_space = Aurora_vm.Vm_space
module Store = Aurora_objstore.Store
module Serial = Aurora_core.Serial
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Memcached = Aurora_apps.Memcached_sim
module Mutilate = Aurora_workloads.Mutilate
module Text_table = Aurora_util.Text_table
module Units = Aurora_util.Units

type side = {
  s_stop_ns : float;
  s_quiesce_ns : float;
  s_serialize_ns : float;  (** in-stop for STW; spare-core busy for spec *)
  s_speculate_ns : float;
  s_validate_ns : float;
  s_conflict_objects : float;
  s_conflict_pages : float;
  s_hook_ops : float;  (** requests served inside soft-quiesce windows *)
}

type sample = { conns : int; npages : int; rate : float; stw : side; spec : side }

let avgi f stats = Harness.avg (List.map (fun s -> float_of_int (f s)) stats)

let serve mc mut =
  match Mutilate.next mut with
  | Mutilate.Get k -> Memcached.get mc k
  | Mutilate.Set (k, v) -> Memcached.set mc k ~value_bytes:v

let run_arm ~speculative ~conns ~nkeys ~rate ~intervals =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let mc = Memcached.create ~machine:m ~nkeys in
  let p = Memcached.proc mc in
  let socks = Array.init conns (fun _ -> Syscall.socketpair m p) in
  let group = Sls.attach sys [ p ] in
  if speculative then Group.set_speculative group true;
  let period = Group.period_ns group in
  let clk = m.Aurora_kern.Machine.clock in
  let hook_ops = ref 0 in
  if speculative then begin
    (* The service keeps answering requests whenever the soft serialize
       pass yields: every window serves as many ops as its duration
       allows, each marking a connection socket — exactly the mutation
       stream the validator must splice. *)
    let hmut = Mutilate.create ~nkeys ~get_ratio:0.5 ~seed:13 () in
    let hsock = ref 0 in
    Aurora_kern.Machine.set_run_hook m
      (Some
         (fun ns ->
           let budget = min 64 (ns / (4 * Memcached.base_service_ns)) in
           for _ = 1 to max 1 budget do
             incr hook_ops;
             serve mc hmut;
             incr hsock;
             ignore
               (Syscall.write m p ~fd:(fst socks.(!hsock mod conns)) "h")
           done))
  end;
  ignore (Group.checkpoint ~wait_durable:true group);
  let mut = Mutilate.create ~nkeys ~get_ratio:0.5 ~seed:7 () in
  let npages = Memcached.arena_pages mc in
  (* ~2 ops per target dirty page: the zipfian mix is half sets. *)
  let nreq = max 2 (int_of_float (2.0 *. rate *. float_of_int npages)) in
  let t0 = Clock.now clk in
  let stats = ref [] in
  for i = 1 to intervals do
    for _ = 1 to nreq do
      serve mc mut
    done;
    (* Per-request connection activity: every socket buffer is dirty by
       checkpoint time, as a loaded server's would be. *)
    Array.iter (fun (a, _) -> ignore (Syscall.write m p ~fd:a "x")) socks;
    Clock.advance_to clk (t0 + (i * period));
    stats := Group.checkpoint group :: !stats
  done;
  Store.wait_durable sys.Sls.store;
  Aurora_kern.Machine.set_run_hook m None;
  let st = !stats in
  {
    s_stop_ns = avgi (fun s -> s.Group.stop_ns) st;
    s_quiesce_ns = avgi (fun s -> s.Group.quiesce_ns) st;
    s_serialize_ns = avgi (fun s -> s.Group.os_serialize_ns) st;
    s_speculate_ns = avgi (fun s -> s.Group.speculate_ns) st;
    s_validate_ns = avgi (fun s -> s.Group.validate_ns) st;
    s_conflict_objects = avgi (fun s -> s.Group.conflict_objects) st;
    s_conflict_pages = avgi (fun s -> s.Group.conflict_pages) st;
    s_hook_ops = float_of_int !hook_ops /. float_of_int intervals;
  }

let measure ~conns ~nkeys ~rate ~intervals =
  let stw = run_arm ~speculative:false ~conns ~nkeys ~rate ~intervals in
  let spec = run_arm ~speculative:true ~conns ~nkeys ~rate ~intervals in
  {
    conns;
    npages = (nkeys + 15) / 16;
    rate;
    stw;
    spec;
  }

(* Byte-identity: same world, no hook; a speculative epoch and a forced
   full one with no ops in between must be indistinguishable. *)
let identity_check ~conns ~nkeys =
  let sys = Sls.boot () in
  let m = sys.Sls.machine in
  let mc = Memcached.create ~machine:m ~nkeys in
  let p = Memcached.proc mc in
  let socks = Array.init conns (fun _ -> Syscall.socketpair m p) in
  let group = Sls.attach sys [ p ] in
  ignore (Group.checkpoint ~wait_durable:true group);
  Group.set_speculative group true;
  let mut = Mutilate.create ~nkeys ~get_ratio:0.3 ~seed:99 () in
  for _ = 1 to 2 do
    for _ = 1 to 40 do
      serve mc mut
    done;
    Array.iter (fun (a, _) -> ignore (Syscall.write m p ~fd:a "i")) socks;
    ignore (Group.checkpoint ~wait_durable:true group)
  done;
  let c1 = Group.checkpoint ~wait_durable:true group in
  let c2 = Group.checkpoint ~wait_durable:true ~full:true group in
  let store = sys.Sls.store in
  let e1 = c1.Group.epoch and e2 = c2.Group.epoch in
  let objs1 = Store.objects_at store ~epoch:e1 in
  let objs2 = Store.objects_at store ~epoch:e2 in
  objs1 = objs2
  && List.for_all
       (fun (oid, kind) ->
         kind = Serial.kind_manifest
         || Store.read_meta store ~epoch:e1 ~oid
              = Store.read_meta store ~epoch:e2 ~oid
            && Store.page_crcs store ~epoch:e1 ~oid
               = Store.page_crcs store ~epoch:e2 ~oid)
       objs2

let json_row s =
  Harness.(
    Obj
      [
        ("conns", int s.conns); ("npages", int s.npages); ("mutation_rate", float 4 s.rate);
        ( "stw",
          Obj
            [
              ("stop_ns", float 0 s.stw.s_stop_ns); ("quiesce_ns", float 0 s.stw.s_quiesce_ns);
              ("serialize_ns", float 0 s.stw.s_serialize_ns);
            ] );
        ( "spec",
          Obj
            [
              ("stop_ns", float 0 s.spec.s_stop_ns); ("quiesce_ns", float 0 s.spec.s_quiesce_ns);
              ("speculate_ns", float 0 s.spec.s_speculate_ns);
              ("validate_ns", float 0 s.spec.s_validate_ns);
              ("spare_core_ns", float 0 s.spec.s_serialize_ns);
              ("conflict_objects", float 1 s.spec.s_conflict_objects);
              ("conflict_pages", float 1 s.spec.s_conflict_pages);
              ("hook_ops_per_ckpt", float 1 s.spec.s_hook_ops);
            ] );
        ("stop_reduction", float 2 (s.stw.s_stop_ns /. Float.max 1.0 s.spec.s_stop_ns));
      ])

let run ~configs ~intervals =
  print_endline
    "ckpt-spec: speculative soft-quiesce vs stop-the-world, 100 Hz stop window";
  print_endline
    "  (identical foreground trace; the speculative arm also serves requests \
     inside the window)";
  print_newline ();
  let samples =
    List.map
      (fun (conns, nkeys, rate) -> measure ~conns ~nkeys ~rate ~intervals)
      configs
  in
  let table =
    Text_table.create
      ~header:
        [
          "conns";
          "pages";
          "mutation";
          "stw stop";
          "spec stop";
          "reduction";
          "speculate";
          "validate";
          "conflicts";
          "ops-in-ckpt";
        ]
  in
  List.iter
    (fun s ->
      Text_table.add_row table
        [
          string_of_int s.conns;
          string_of_int s.npages;
          Printf.sprintf "%.0f%%" (s.rate *. 100.0);
          Units.ns_to_string (int_of_float s.stw.s_stop_ns);
          Units.ns_to_string (int_of_float s.spec.s_stop_ns);
          Printf.sprintf "%.1fx" (s.stw.s_stop_ns /. Float.max 1.0 s.spec.s_stop_ns);
          Units.ns_to_string (int_of_float s.spec.s_speculate_ns);
          Units.ns_to_string (int_of_float s.spec.s_validate_ns);
          Printf.sprintf "%.1f obj/%.1f pg" s.spec.s_conflict_objects
            s.spec.s_conflict_pages;
          Printf.sprintf "%.1f" s.spec.s_hook_ops;
        ])
    samples;
  Text_table.print table;
  print_newline ();
  let conns, nkeys, _ = List.hd configs in
  let identity = identity_check ~conns:(min conns 16) ~nkeys in
  Printf.printf "byte-identity (speculative vs forced-full): %s\n"
    (if identity then "OK" else "MISMATCH");
  Harness.write_json "BENCH_ckpt_spec.json"
    [
      ("bench", Harness.str "ckpt_spec"); ("byte_identity", Harness.bool identity);
      ("configs", Harness.Rows (List.map json_row samples));
    ];
  (* Acceptance gate: at <= 1% mutation the speculative stop window must
     be >= 5x shorter than stop-the-world, and the speculative image must
     be byte-identical to a forced-full one. *)
  if not identity then Harness.fail "ckpt-spec: FAIL: speculative epoch differs from forced-full";
  List.iter
    (fun s ->
      if s.rate <= 0.011 then begin
        let reduction = s.stw.s_stop_ns /. Float.max 1.0 s.spec.s_stop_ns in
        if reduction < 5.0 then
          Harness.fail "ckpt-spec: FAIL: 1%%-mutation stop_ns reduction %.2fx (need >= 5x)"
            reduction
      end)
    samples;
  print_endline
    "acceptance: >= 5x stop-window reduction at 1% mutation, byte-identical \
     image"

let main = function
  | Harness.Smoke ->
      run ~configs:[ (384, 8192, 0.01); (384, 8192, 0.10) ] ~intervals:4
  | _ ->
      run
        ~configs:
          [
            (384, 16384, 0.01);
            (384, 16384, 0.05);
            (384, 16384, 0.10);
            (384, 16384, 0.25);
            (512, 16384, 0.01);
            (512, 16384, 0.05);
          ]
        ~intervals:8
