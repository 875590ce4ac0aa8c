(* Shared bench plumbing: the mode word an artifact runs in, the JSON
   emitter behind every BENCH_*.json, and the host-allocation gate. *)

(* [Full] is a bare artifact name; [Smoke], [Fast] and [Deep] follow it
   as a mode word ([deep] takes an optional integer seed). *)
type mode = Full | Smoke | Fast | Deep of int option

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* Print [fmt] as one line on stderr and exit 1: a failed gate. *)
let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* Print a gate's line; exit 1 if the gate did not [pass]. *)
let check pass line =
  print_endline line;
  if not pass then fail "FAIL: %s" line

(* JSON as the benches lay it out: a top-level object with one field per
   line, [Rows] as a list with one inline object per line, every other
   value inline.  [Raw] is an already-formatted scalar. *)
type json = Raw of string | Obj of (string * json) list | Rows of json list

let int i = Raw (string_of_int i)
let bool b = Raw (string_of_bool b)
let str s = Raw ("\"" ^ s ^ "\"")
let float digits x = Raw (Printf.sprintf "%.*f" digits x)

let rec inline = function
  | Raw s -> s
  | Obj fields ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (inline v)) fields)
      ^ "}"
  | Rows rows -> "[" ^ String.concat ", " (List.map inline rows) ^ "]"

let top_field (k, v) =
  match v with
  | Rows rows ->
      Printf.sprintf "  \"%s\": [\n%s\n  ]" k
        (String.concat ",\n" (List.map (fun r -> "    " ^ inline r) rows))
  | v -> Printf.sprintf "  \"%s\": %s" k (inline v)

let write_json file fields =
  let oc = open_out file in
  output_string oc ("{\n" ^ String.concat ",\n" (List.map top_field fields) ^ "\n}\n");
  close_out oc;
  print_endline ("wrote " ^ file)

(* Host-allocation gate.  [measure n] is the minor words per unit of work
   at size [n]; allocation is deterministic for a fixed toolchain, so the
   gate does not flake.  It measures [small] and [large], requires the
   large/small ratio within [max_ratio] and each figure within [ceiling]
   (whichever are given), prints one line and exits 1 on failure. *)
let alloc_gate ~what ~unit_ ~digits ?max_ratio ?ceiling ~small ~large measure =
  let w_small = measure small in
  let w_large = measure large in
  let ratio = w_large /. w_small in
  let needs =
    Option.to_list (Option.map (Printf.sprintf "<= %.2fx") max_ratio)
    @ Option.to_list (Option.map (Printf.sprintf "each <= %.0f") ceiling)
  in
  let line =
    Printf.sprintf "gate: %s %.*f at %d %s, %.*f at %d %s%s (need %s)" what digits
      w_small small unit_ digits w_large large unit_
      (if max_ratio = None then "" else Printf.sprintf ": %.2fx" ratio)
      (String.concat ", " needs)
  in
  let over lim x = Option.fold ~none:false ~some:(fun l -> x > l) lim in
  check (not (over max_ratio ratio || over ceiling w_small || over ceiling w_large)) line
