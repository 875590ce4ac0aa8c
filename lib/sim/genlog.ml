(* A machine's kernel-object ids and its mutation log for their
   generation stamps.

   Speculative checkpointing (PhoenixOS-style soft quiesce) serializes
   OS objects while the workload keeps running, then must find the
   objects mutated mid-serialize.  Walking the whole object graph and
   dirty-checking every stamp would put an O(objects) pass back inside
   the stop window — exactly the cost speculation exists to remove — so
   while the log is armed, every generation bump also appends the
   object's id here.  The checkpointer drains the log to re-serialize
   only the O(mutations) conflict set.

   Each machine owns one log, and its kernel objects draw their ids from
   it: one id space per machine, so an id alone names an object, and a
   checkpoint of one machine never sees or clears another's notes. *)

type t = { mutable next_id : int; mutable armed : bool; mutable entries : int list }

let create () = { next_id = 0; armed = false; entries = [] }

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let arm t =
  t.armed <- true;
  t.entries <- []

let disarm t =
  t.armed <- false;
  t.entries <- []

let note t id = if t.armed then t.entries <- id :: t.entries

(* Drain pending notes (deduplicated, oldest first) without disarming:
   the speculation phase drains repeatedly — refinement rounds, then one
   final drain inside the stop window. *)
let drain t =
  let pending = List.rev t.entries in
  t.entries <- [];
  let seen = Hashtbl.create 16 in
  List.filter
    (fun id ->
      if Hashtbl.mem seen id then false
      else begin
        Hashtbl.replace seen id ();
        true
      end)
    pending
