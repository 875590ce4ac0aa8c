(* Guard against new module-level mutable state in lib/.

   Kernel-object ids and the speculation log belong to a machine, so two
   machines in one process never share state.  This check lists every
   top-level binding in lib/ whose right-hand side builds a mutable value
   ([ref], [Hashtbl.create], [Wire.writer ()], ...) and fails on any that
   is not in the allowlist below, or on an allowlist entry that no longer
   exists.  Usage: lint_globals.exe LIB_DIR *)

(* (path under lib/, binding) -> why it may stay process-global *)
let allowlist =
  [
    (("obs/trace.ml", "state"), "the tracer singleton; moving it per machine is open");
    (("obs/metrics.ml", "enabled"), "the metrics registry singleton, like the tracer");
    (("obs/metrics.ml", "registry"), "the metrics registry singleton, like the tracer");
    (("obs/metrics.ml", "order"), "the metrics registry singleton, like the tracer");
    (("objstore/store.ml", "no_pages"), "an empty sentinel table, never written");
    ( ("vm/vm_object.ml", "next_id"),
      "the vm layer sits below the machine; vnodes create objects with none at hand" );
    (("core/serial.ml", "scratch"), "a per-call encode buffer, reset by every image");
    (("core/serial.ml", "scratch_busy"), "guards the per-call buffer against reentry");
  ]

let mutable_constructors =
  [
    "ref ";
    "ref(";
    "Hashtbl.create";
    "Wire.writer";
    "Buffer.create";
    "Queue.create";
    "Bytes.create";
    "Array.make";
  ]

let binding = Str.regexp "^let \\([a-z_][A-Za-z0-9_']*\\)\\( *:[^=]*\\)? *=\\(.*\\)$"

let starts_with s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  Array.of_list lines

let rec ml_files dir rel =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         let rel = if rel = "" then name else rel ^ "/" ^ name in
         if Sys.is_directory path then ml_files path rel
         else if Filename.check_suffix name ".ml" then [ (path, rel) ]
         else [])

(* (rel, line number, name) of each top-level mutable binding in a file.
   A binding whose right-hand side starts on the next line is followed
   there. *)
let globals (path, rel) =
  let lines = read_lines path in
  let found = ref [] in
  Array.iteri
    (fun i line ->
      if Str.string_match binding line 0 then begin
        let name = Str.matched_group 1 line in
        let rhs = String.trim (Str.matched_group 3 line) in
        let rhs =
          if rhs = "" && i + 1 < Array.length lines then String.trim lines.(i + 1)
          else rhs
        in
        if List.exists (starts_with rhs) mutable_constructors then
          found := (rel, i + 1, name) :: !found
      end)
    lines;
  List.rev !found

let () =
  let lib = if Array.length Sys.argv > 1 then Sys.argv.(1) else "lib" in
  let files = ml_files lib "" in
  if files = [] then begin
    Printf.printf "lint_globals: no .ml files under %s\n" lib;
    exit 1
  end;
  let found = List.concat_map globals files in
  let bad = ref 0 in
  List.iter
    (fun (rel, line, name) ->
      match List.assoc_opt (rel, name) allowlist with
      | Some why -> Printf.printf "global  lib/%s:%d %s  (allowed: %s)\n" rel line name why
      | None ->
          incr bad;
          Printf.printf
            "global  lib/%s:%d %s  NOT ALLOWED: keep the state in a value (the \
             machine, say)\n"
            rel line name)
    found;
  List.iter
    (fun ((rel, name), _) ->
      if not (List.exists (fun (r, _, n) -> r = rel && n = name) found) then begin
        incr bad;
        Printf.printf "allowlist entry lib/%s %s no longer exists: remove it\n" rel name
      end)
    allowlist;
  if !bad > 0 then exit 1
