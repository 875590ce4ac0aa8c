(* What one benchmark process prints: named metrics with unit, clock and
   sample count, the output checks, and the attempted/failed tally, as a
   single JSON object on the last line of stdout. *)

type clock = Virtual | Host

type metric = {
  name : string;
  value : float;
  unit_ : string;
  clock : clock;
  samples : int;
}

let metrics : metric list ref = ref []
let checks : (string * bool * string) list ref = ref []
let outcome : (string * float) list ref = ref []
let attempted = ref 0
let failed = ref 0

let add ?(samples = 1) ~clock name unit_ value =
  metrics := { name; value; unit_; clock; samples } :: !metrics

let v ?samples name unit_ value = add ?samples ~clock:Virtual name unit_ value
let h ?samples name unit_ value = add ?samples ~clock:Host name unit_ value

(* A metric of a layer the workload does not exercise: zero samples. *)
let absent name unit_ = v ~samples:0 name unit_ 0.0

(* Raised by a workload once set-up is done, in set-up-only runs. *)
exception Setup_done

let check name ok detail = checks := (name, ok, detail) :: !checks

(* The virtual outcome compared against the library's own runner. *)
let set_outcome fields = outcome := fields

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let to_json ~workload ~seed ~traced =
  let metric m =
    Printf.sprintf "{\"name\":%s,\"value\":%s,\"unit\":%s,\"clock\":\"%s\",\"samples\":%d}"
      (json_string m.name) (json_float m.value) (json_string m.unit_)
      (match m.clock with Virtual -> "v" | Host -> "h")
      m.samples
  in
  let check (name, ok, detail) =
    Printf.sprintf "{\"name\":%s,\"ok\":%b,\"detail\":%s}" (json_string name) ok
      (json_string detail)
  in
  let field (k, x) = Printf.sprintf "%s:%s" (json_string k) (json_float x) in
  Printf.sprintf
    "{\"workload\":%s,\"seed\":%d,\"traced\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":[%s],\"checks\":[%s],\"outcome\":{%s}}"
    (json_string workload) seed traced !attempted !failed
    (String.concat "," (List.rev_map metric !metrics))
    (String.concat "," (List.rev_map check !checks))
    (String.concat "," (List.map field !outcome))
