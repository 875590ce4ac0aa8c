(** One machine's kernel-object ids and mutation log.

    Every kernel object (pipe, socket, kqueue, pty, shm segment, file
    description, AIO) takes its id from its machine's log, so an id alone
    names an object within the machine.  Armed only during a speculative
    checkpoint's soft-quiesce window: every generation bump on a kernel
    object appends its id, letting the validator re-serialize the
    O(mutations) conflict set instead of dirty-checking the whole object
    graph inside the stop window.  Process/thread mutations are
    deliberately not logged; the validator diffs
    [Process.effective_generation] per member instead. *)

type t

val create : unit -> t

val fresh_id : t -> int
(** The next kernel-object id: 1, 2, ... *)

val arm : t -> unit
(** Start logging; clears any stale entries. *)

val disarm : t -> unit
(** Stop logging and drop pending entries. *)

val note : t -> int -> unit
(** O(1) when disarmed (a single flag test) so steady-state kernels pay
    nothing for the hook. *)

val drain : t -> int list
(** Ids noted since the last drain, deduplicated, oldest first.  Leaves
    the log armed. *)
