(* Host-clock probes around every call the benchmark makes into a layer.

   Untraced, [call] is one branch and the call itself, so end-to-end runs
   pay nothing for the probes.  Traced, each call opens a span (layer,
   host start and end, parent span, request id), adds its inclusive host
   time and allocated minor words to its kind, and adds its self time —
   duration minus the time its child spans cover — to its layer while
   the measured window is open.  The measured window's spans are kept in
   memory up to a fixed cap (the overflow is counted) and written out at
   exit. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The process's CPU seconds: unlike the wall clock, it leaves out time
   the process spent descheduled on a shared host. *)
let cpu_s () = Sys.time ()

let layers = [| "kern"; "apps"; "vm"; "core"; "objstore"; "block"; "net" |]

let layer_index name =
  let rec go i =
    if i = Array.length layers then invalid_arg ("Probe: unknown layer " ^ name)
    else if layers.(i) = name then i
    else go (i + 1)
  in
  go 0

type kind = {
  k_id : int;
  k_name : string;
  k_layer : int;
  mutable k_calls : int;
  mutable k_ns : int;  (** inclusive host ns over all calls *)
  mutable k_words : float;  (** inclusive minor words over all calls *)
}

let kinds : kind list ref = ref []

let kind ~layer name =
  let k =
    {
      k_id = List.length !kinds;
      k_name = name;
      k_layer = layer_index layer;
      k_calls = 0;
      k_ns = 0;
      k_words = 0.0;
    }
  in
  kinds := k :: !kinds;
  k

let on = ref false
let window = ref false
let self_ns = Array.make (Array.length layers) 0
let top_ns = ref 0

(* Span store: parallel int arrays, bounded. *)
let cap = 50_000
let sp_kind = Array.make cap 0
let sp_t0 = Array.make cap 0
let sp_t1 = Array.make cap 0
let sp_parent = Array.make cap 0
let sp_req = Array.make cap 0
let nspans = ref 0
let dropped = ref 0

type frame = {
  f_kind : kind;
  f_span : int;  (** index in the store, -1 when dropped *)
  f_t0 : int;
  f_w0 : float;
  mutable f_child : int;
}

let stack : frame list ref = ref []
let enable () = on := true
let traced () = !on

let open_window () =
  window := true;
  Array.fill self_ns 0 (Array.length self_ns) 0;
  top_ns := 0

let close_window () = window := false

let start k req =
  let parent = match !stack with f :: _ -> f.f_span | [] -> -1 in
  let span =
    if !window && !nspans < cap then begin
      let i = !nspans in
      incr nspans;
      sp_kind.(i) <- k.k_id;
      sp_parent.(i) <- parent;
      sp_req.(i) <- req;
      i
    end
    else begin
      if !window then incr dropped;
      -1
    end
  in
  let w0 = Gc.minor_words () in
  let f = { f_kind = k; f_span = span; f_t0 = now_ns (); f_w0 = w0; f_child = 0 } in
  stack := f :: !stack;
  f

let finish f =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let k = f.f_kind in
  stack := (match !stack with _ :: rest -> rest | [] -> []);
  let dur = t1 - f.f_t0 in
  k.k_calls <- k.k_calls + 1;
  k.k_ns <- k.k_ns + dur;
  k.k_words <- k.k_words +. (w1 -. f.f_w0);
  if !window then self_ns.(k.k_layer) <- self_ns.(k.k_layer) + dur - f.f_child;
  (match !stack with
  | parent :: _ -> parent.f_child <- parent.f_child + dur
  | [] -> if !window then top_ns := !top_ns + dur);
  if f.f_span >= 0 then begin
    sp_t0.(f.f_span) <- f.f_t0;
    sp_t1.(f.f_span) <- t1
  end

let call ?(req = -1) k f =
  if not !on then f ()
  else
    let fr = start k req in
    match f () with
    | v ->
        finish fr;
        v
    | exception e ->
        finish fr;
        raise e

let calls k = k.k_calls

let host_us_per_call k =
  if k.k_calls = 0 then 0.0 else float_of_int k.k_ns /. 1e3 /. float_of_int k.k_calls

let host_ms_per_call k =
  if k.k_calls = 0 then 0.0 else float_of_int k.k_ns /. 1e6 /. float_of_int k.k_calls

let words_per_call k =
  if k.k_calls = 0 then 0.0 else k.k_words /. float_of_int k.k_calls

let layer_self_ms name = float_of_int self_ns.(layer_index name) /. 1e6
let wrapped_ms () = float_of_int !top_ns /. 1e6

(* Chrome trace-event JSON: one complete event per stored span, host
   microseconds, parent span and request id in the args. *)
let write_spans oc =
  let by_id = Array.make (List.length !kinds) "" in
  let layer_of = Array.make (List.length !kinds) "" in
  List.iter
    (fun k ->
      by_id.(k.k_id) <- k.k_name;
      layer_of.(k.k_id) <- layers.(k.k_layer))
    !kinds;
  let base = if !nspans > 0 then sp_t0.(0) else 0 in
  output_string oc "[";
  for i = 0 to !nspans - 1 do
    if i > 0 then output_string oc ",\n";
    Printf.fprintf oc
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"req\":%d}}"
      by_id.(sp_kind.(i)) layer_of.(sp_kind.(i))
      (float_of_int (sp_t0.(i) - base) /. 1e3)
      (float_of_int (sp_t1.(i) - sp_t0.(i)) /. 1e3)
      i sp_parent.(i) sp_req.(i)
  done;
  output_string oc "]"
