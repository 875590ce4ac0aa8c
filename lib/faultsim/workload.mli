(** Recorded store workloads for crash-consistency torture.

    A workload is a list of {!op} values — the unit the crash-point
    enumerator replays deterministically and the reference {!Model}
    applies in parallel.  Ops print as replayable OCaml-ish constructor
    syntax so a failing qcheck counterexample is a script. *)

type op =
  | Checkpoint of (int * string * string * (int * char) list) list
      (** [(oid, kind, meta, [(page index, fill char)])] per object; pages
          are {!payload_size}-byte runs of the fill character.  Staged with
          [begin_checkpoint] .. [commit_checkpoint], no wait: commits
          pipeline. *)
  | Prune of int  (** [Store.prune_history ~keep] (clamped to >= 1). *)
  | Journal_create of int  (** [Store.journal_create ~size]. *)
  | Journal_append of int * string
      (** Append to the journal with this id; skipped (deterministically,
          both in the runner and the model) when the journal does not exist
          or the record would overflow it. *)
  | Journal_truncate of int  (** Skipped when the journal does not exist. *)
  | Wait  (** [Store.wait_durable]. *)
  | Advance of int  (** Advance the virtual clock. *)

val page_payload : char -> bytes

val journal_record_len : string -> int
(** On-device bytes of one journal record carrying this data (the wire
    overhead is 9 bytes: tag, generation, length prefix). *)

val journal_capacity_of_size : int -> int
(** Usable bytes of a journal created with [~size] (rounded up to whole
    blocks, as the store does). *)

val op_to_string : op -> string
val ops_to_string : op list -> string

(** {1 Replaying against a real store} *)

type runner

val runner : Aurora_objstore.Store.t -> runner
val run_op : runner -> op -> unit

(** {1 Workload generation} *)

val gen_ops : Aurora_util.Rng.t -> n:int -> max_oid:int -> max_pages:int -> op list

val speculative_arm : op list -> op list
(** Rewrite every [Checkpoint] into a speculative soft-quiesce shape: a
    stale prelude of the same objects (shifted fill chars, tagged meta)
    followed by the real content, so each row is superseded through the
    store's newest-wins staging — the mechanism the validator's conflict
    splice uses.  Crash-point enumeration over the transformed workload
    demands recovery never observes a half-spliced image. *)

val standard : op list
(** The acceptance workload: three-plus pipelined checkpoints with
    cross-leaf page spreads, journal create/append/truncate traffic and a
    prune — a few hundred device-submission boundaries. *)

(** {1 Kernel-driven recorded profiles}

    These run a real kernel model ({!Aurora_kern.Machine}, no store
    attached) and project its state into plain ops after every epoch, so
    the crash-point enumerator replays genuine POSIX behaviour — fork's
    COW resolution, pipes spanning process boundaries, a shared-memory
    ring — with no kernel in the loop. *)

val fork_bomb : ?seed:int -> ?epochs:int -> unit -> op list
(** A shell-pipeline process tree: the root "sh" forks children mid-epoch
    (each fork creates a pipe whose ends span parent and child), children
    write into a COW'd 8-page arena, leaves exit and are reaped.  Each
    epoch checkpoints every live process's written pages — read through
    that process's own address space, so undiverged children record
    byte-identical pages (store dedup hits) — plus every live pipe's
    unread residue. *)

val shm_ring : ?seed:int -> ?epochs:int -> unit -> op list
(** A POSIX-shm producer/consumer ring: two processes map the same shm
    object ([shm_open]/[mmap_shm]) at different addresses; the producer
    publishes records under a per-slot seqlock (stamp odd, write body,
    stamp even, bump head) and the consumer reads through its own
    mapping.  Some epochs checkpoint mid-publish — the recorded snapshot
    is exactly the torn window a crash could land in.  Checkpoint pages
    are read through the {e consumer's} mapping, proving the two mappings
    are one object. *)

val shm_ring_check : string -> (int, string) result
(** Seqlock invariant over a rendered snapshot (a {!Model.render} or
    {!Torture.observe} string): for every epoch's shm object, reconstruct
    the ring from its [head=..;tail=..;slots=..;pub=..] meta and demand
    every page matches — published slots carry an even stamp and the body
    of their record; an in-flight publication carries an odd stamp and
    (depending on its stage) the old or new body, so a reader skips it.
    [Ok n] = [n] snapshots checked; [Error _] names the first exposed
    half-written record. *)
