(** Kqueues: kernel event queues (FreeBSD's select/poll successor).

    Checkpointing a kqueue must lock and serialize every registered event —
    the reason it is the slowest POSIX object in the paper's Table 4.

    The structure is FreeBSD's.  Each registration is a {e knote}, keyed by
    [(ident, filter)].  A knote hangs on the {e knlist} of the socket or
    pipe behind its fd, and a state change of that object {e activates}
    it: puts it on the kqueue's active queue, at most once.  A poll walks
    the active queue only, so it costs O(activated knotes), not
    O(registrations).

    Activation sources:
    - the object's knlist: {!Socket.send} to a peer, [Socket.accept_enqueue],
      TCP state changes and [Socket.refill]; {!Pipe.write}, [Pipe.read]
      (it frees room for writers) and [Pipe.refill];
    - conservative seeding, for changes no knlist sees: a new registration
      or re-registration, {!replace_events} on restore, a change to the
      polling process's fd table at a registered slot ({!slot_changed}),
      and a poll from a different fd table than last time ({!set_poller}).

    Polling is level-triggered.  {!poll} re-checks each queued knote with
    the caller's readiness predicate, keeps the ready ones queued (a
    socket's [Ev_write] stays queued for as long as it is a socket) and
    dequeues the rest; their object's next activation queues them again.
    Ready events come back in activation order. *)

type filter = Ev_read | Ev_write | Ev_timer | Ev_signal | Ev_proc

type kevent = {
  ident : int;  (** fd, signal number, pid, ... depending on the filter *)
  filter : filter;
  flags : int;
  udata : int;  (** opaque user cookie *)
}

type t

val create : Aurora_sim.Genlog.t -> t
val id : t -> int

val generation : t -> int
(** Monotonic mutation stamp over the registered-event set. *)

val register : t -> kevent -> unit
(** EV_ADD: insert, or replace the registration with the same
    [(ident, filter)]; either way it becomes the newest.  O(1). *)

val deregister : t -> ident:int -> filter:filter -> unit
(** EV_DELETE.  O(1) plus the length of the object's knlist. *)

val events : t -> kevent list
(** Every registration, newest first: the serialized order. *)

val event_count : t -> int

val replace_events : t -> kevent list -> unit
(** Restore path: the list is newest first, as {!events} returns it.
    Every knote starts active. *)

(** {1 Knotes and knlists} *)

type knote

val event : knote -> kevent

type knlist
(** The knotes watching one socket or pipe. *)

val knlist : unit -> knlist

val activate : knlist -> unit
(** The object may have become ready: queue each of its knotes that is not
    already queued. *)

val attach : knote -> knlist -> unit
(** Hang the knote on an object's knlist, leaving any previous one. *)

val detach : knote -> unit

(** {1 Polling} *)

type fd_watch
(** One per fd table: the kqueues it polls, told of slot changes. *)

val fd_watch : unit -> fd_watch

val set_poller : t -> fd_watch -> unit
(** Record the fd table a poll resolves idents in.  A table different from
    the last one activates every knote. *)

val slot_changed : fd_watch -> slot:int -> unit
(** The table's [slot] now holds another description, or none: activate
    the knotes with that ident in the kqueues this table polls. *)

val poll : t -> ready:(knote -> bool) -> kevent list
(** Walk the active queue once: keep and return the knotes [ready] accepts,
    dequeue the rest.  [ready] should {!attach} the knote to the knlist of
    the object it checked, or {!detach} it when no object can wake it. *)
