(** Open-file descriptions (the kernel's [struct file]).

    A description is the object a file-descriptor table slot points at.
    fork and dup make two slots reference the {e same} description (shared
    offset); a second [open] of the same path makes a {e new} description
    over the same vnode (independent offset) — the sharing semantics the
    POSIX object model must reproduce exactly (paper section 5.1). *)

type kind =
  | Vnode_file of { vn : Vnode.t; mutable offset : int; mutable append : bool }
  | Pipe_read of Pipe.t
  | Pipe_write of Pipe.t
  | Socket_fd of Socket.t
  | Kqueue_fd of Kqueue.t
  | Pty_master_fd of Pty.t
  | Pty_slave_fd of Pty.t
  | Shm_fd of Shm.t
  | Device_fd of string  (** whitelisted device, e.g. "hpet0" *)

type t = {
  log : Aurora_sim.Genlog.t;  (** the machine's: issues the id, takes stamp notes *)
  desc_id : int;
  kind : kind;
  mutable refs : int;  (** fd-table slots referencing this description *)
  mutable ext_sync : bool;
      (** external synchrony enabled ([sls_fdctl]); on by default *)
  mutable gen : int;
      (** monotonic mutation stamp; use the setters below (or [touch])
          rather than mutating serialized fields in place *)
}

val create : Aurora_sim.Genlog.t -> kind -> t

val generation : t -> int
(** Monotonic mutation stamp over the serialized image (kind payload —
    offset/append for files — and the ext_sync flag). *)

val set_ext_sync : t -> bool -> unit
(** Flip external synchrony, bumping the stamp on change. *)

val set_offset : t -> int -> unit
(** Update a vnode-backed description's file offset, bumping the stamp on
    change.  @raise Invalid_argument for other kinds. *)

val retain : t -> unit

val release : t -> unit
(** Decrements; when it reaches zero, closes the underlying object
    (vnode open count, pipe end, ...). *)

val kind_name : t -> string
