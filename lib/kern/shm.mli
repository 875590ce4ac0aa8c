(** Shared memory segments, POSIX ([shm_open]) and System V ([shmget]).

    The descriptor holds a mutable reference to the current backing VM
    object: this is the backmap the paper introduces so that system
    shadowing can swing the descriptor to the newest shadow, making future
    mappings use it (section 6).  System V segments live in a global
    namespace that must be scanned during checkpoint, which is why they
    cost more to checkpoint than POSIX segments in Table 4. *)

type kind = Posix_shm of string  (** name *) | Sysv_shm of int  (** key *)

type t

val create : Aurora_sim.Genlog.t -> kind -> npages:int -> t
val id : t -> int
val kind : t -> kind
val npages : t -> int

val backing : t -> Aurora_vm.Vm_object.t
val set_backing : t -> Aurora_vm.Vm_object.t -> unit
(** The backmap update performed by system shadowing.  Deliberately does
    NOT bump the generation stamp: the serialized image references the
    stable memory-object oid, and shadow rotation happens every
    checkpoint. *)

val generation : t -> int
(** Monotonic mutation stamp (kind, size and backing identity are
    immutable, so this only moves if a future mutation site bumps it). *)
