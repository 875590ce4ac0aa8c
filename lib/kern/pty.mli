(** Pseudoterminals: a master/slave byte-queue pair plus terminal state.

    Restore must recreate the virtual device in the device filesystem,
    which requires devfs locking — the reason ptys are the slowest POSIX
    object to restore in Table 4. *)

type termios = {
  mutable echo : bool;
  mutable canonical : bool;
  mutable baud : int;
}

type t

val create : Aurora_sim.Genlog.t -> unit_no:int -> t
(** A pty with the given /dev/pts unit number. *)

val id : t -> int
val unit_number : t -> int
(** The /dev/pts/N number. *)

val termios : t -> termios

val set_termios : t -> echo:bool -> canonical:bool -> baud:int -> unit
(** Replace the terminal settings, bumping the generation stamp.  Prefer
    this over mutating the [termios] record directly: direct mutation
    leaves the stamp stale and incremental checkpoints would persist the
    old settings. *)

val generation : t -> int
(** Monotonic mutation stamp over the serialized image (termios + both
    byte queues). *)

val master_write : t -> string -> unit
(** Bytes typed at the master appear on the slave's input. *)

val slave_read : t -> len:int -> string
val slave_write : t -> string -> unit
val master_read : t -> len:int -> string

val in_buffered : t -> string
val out_buffered : t -> string
val refill : t -> input:string -> output:string -> unit
