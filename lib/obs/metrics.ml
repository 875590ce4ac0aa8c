module Histogram = Aurora_util.Histogram

type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }
type histogram = { h_name : string; h_samples : Histogram.t }
type metric = C of counter | G of gauge | H of histogram

let enabled = ref false
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Registration order, for a deterministic report. *)
let order : string list ref = ref []

let set_enabled b = enabled := b
let is_enabled () = !enabled

let register name make =
  match Hashtbl.find_opt registry name with
  | Some m -> m
  | None ->
      let m = make () in
      Hashtbl.replace registry name m;
      order := name :: !order;
      m

let counter name =
  match register name (fun () -> C { c_name = name; c_value = 0 }) with
  | C c -> c
  | _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")

let gauge name =
  match register name (fun () -> G { g_name = name; g_value = 0 }) with
  | G g -> g
  | _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")

let histogram name =
  match register name (fun () -> H { h_name = name; h_samples = Histogram.create () }) with
  | H h -> h
  | _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")

let incr ?(by = 1) c = if !enabled then c.c_value <- c.c_value + by
let value c = c.c_value
let set_gauge g v = if !enabled then g.g_value <- v
let gauge_value g = g.g_value
let observe h x = if !enabled then Histogram.add h.h_samples x
let observe_ns h n = observe h (float_of_int n)

let summary h =
  let s = h.h_samples in
  ( Histogram.count s,
    Histogram.percentile_interp s 50.0,
    Histogram.percentile_interp s 99.0,
    Histogram.max s )

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> c.c_value <- 0
      | G g -> g.g_value <- 0
      | H h -> Histogram.clear h.h_samples)
    registry

(* Power-of-two buckets of a sample set: [(k, count)] meaning
   [2^k <= x < 2^(k+1)] (k = 0 collects everything below 2). *)
let log2_buckets s =
  let tbl = Hashtbl.create 16 in
  ignore
    (Histogram.fold
       (fun () x ->
         let k =
           if x < 2.0 then 0
           else int_of_float (Float.log2 x)
         in
         Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
       () s);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let report () =
  let b = Buffer.create 1024 in
  let names = List.rev !order in
  List.iter
    (fun name ->
      match Hashtbl.find registry name with
      | C c -> Printf.bprintf b "counter %-32s %d\n" c.c_name c.c_value
      | G g -> Printf.bprintf b "gauge   %-32s %d\n" g.g_name g.g_value
      | H h ->
          let count, p50, p99, mx = summary h in
          Printf.bprintf b "hist    %-32s n=%d p50=%.0f p99=%.0f max=%.0f\n"
            h.h_name count p50 p99 mx;
          List.iter
            (fun (k, n) -> Printf.bprintf b "          2^%-2d %d\n" k n)
            (log2_buckets h.h_samples))
    names;
  Buffer.contents b
