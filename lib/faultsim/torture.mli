(** Crash-consistency torture: systematic crash-point enumeration and
    randomized fault sweeps over the object store.

    {2 Enumeration}

    {!enumerate} records a workload once against a fault-free store (with
    the reference {!Model} applied op for op), noting every global
    device-submission boundary and its acknowledged completion time.  It
    then replays the workload from scratch for every boundary [k] under
    three durability horizons — before submission [k] is issued
    ([pre-submit]), after it is issued but one tick before it completes
    ([pre-complete]), and exactly at its completion ([post-complete]) —
    cuts the device there ([Striped.crash]), runs [Store.recover], and
    demands the recovered state byte-match a model snapshot inside the
    window the durability guarantees allow.  Epoch and journal state may
    match different snapshots in that window: checkpoint durability is
    asynchronous while journal appends are synchronous, so journals
    legitimately run ahead of epochs.

    Everything is deterministic: a failure names its boundary, mode and
    crash time, and re-running the same workload reproduces it. *)

val observe : Aurora_objstore.Store.t -> string
(** Canonical render of the store's visible state (same format as
    {!Model.render}); reads go through the charged, retrying read path. *)

type failure = {
  f_boundary : int;  (** 1-based global device-submission index *)
  f_mode : string;  (** pre-submit | pre-complete | post-complete *)
  f_crash_time : int;  (** durability horizon passed to [Striped.crash] *)
  f_detail : string;
}

type report = {
  r_boundaries : int;  (** device submissions the workload issued *)
  r_crash_points : int;  (** crash scenarios executed (3 per boundary) *)
  r_failures : failure list;
}

val pp_failure : failure -> string

val enumerate : ?misorder:bool -> Workload.op list -> report
(** Crash everywhere, recover everywhere, compare everywhere.  With
    [~misorder:true] the store's deliberate metadata-before-data bug knob
    ({!Aurora_objstore.Store.set_torture_misorder}) is switched on — the
    enumeration is then expected to return failures; that expectation is
    itself a test that the harness can catch ordering bugs. *)

(** {2 Two-group interleaved enumeration}

    The multi-tenant variant: two stores on two striped arrays share one
    virtual clock and ONE counting fault handler, so a submission index
    names a global device-submission boundary across both tenants.  The
    two workloads are interleaved round-robin and each boundary is crashed
    under the same three durability horizons; the host crash cuts both
    devices at the same time, and each tenant's recovery must
    independently land on one of its own model snapshots inside its own
    durability window.  A crash planted mid-flush of tenant A must never
    leave tenant B unrecoverable — any such corruption shows up as a
    [tenant B] failure. *)

type side = A | B

val enumerate_pair : Workload.op list -> Workload.op list -> report
(** Enumerate every crash point of the interleaved two-tenant workload.
    Failures carry the affected tenant in [f_detail]. *)

(** {2 Randomized sweeps} *)

type sweep_report = {
  s_runs : int;
  s_final_matches : int;
  s_detected : int;
  s_degraded : int;
      (** parseable-but-different outcomes under silent write loss; counted
          rather than failed because the store has no block checksums *)
  s_read_faults : int;
}

val sweep : seed:int -> runs:int -> Injector.profile -> sweep_report
(** Run [runs] random workloads (deterministic from [seed]) under the
    given fault profile.  Read-only profiles observe the live store
    through the injector and must reproduce the model exactly (retries
    absorbing every transient error); write-loss profiles crash and
    recover, classifying each outcome. *)
