(** HA torture: checkpoint shipping and failover under network faults,
    all of it through {!Aurora_core.Replica_set}.

    A primary service under continuous checkpointing pipelines epochs to
    N standbys over independently faulty links (probabilistic drops,
    duplicates, reordering, corruption and partitions, plus scripted
    {!Aurora_net.Link.partition_at} windows); a random minority is
    killed at random rounds, evicted survivors rejoin via catch-up, and
    externally-synchronized messages buffer until quorum.  The primary
    dies at a random round — sometimes before that round ships, leaving
    the standbys lagging — and the survivors elect.  The run passes only
    if the election converges on an epoch no older than the quorum
    commit point, every survivor's vote is no newer than the winner's,
    the restored state byte-matches the reference model at exactly the
    primary epoch the election reports, no released message came from
    the discarded window, and nothing escapes as an uncaught exception.
    At N = 1 this is the single-standby torture.

    The negative control corrupts the standby's newest epoch after a
    clean replication and demands the epoch-fallback loop demonstrably
    skip it.  Everything is deterministic from the seed. *)

type control = Meta | Page

val negative_control : seed:int -> mode:control -> (unit, string) result
(** Ship three rounds cleanly to one standby at window 1, corrupt its
    newest epoch (object metadata or a page payload), fail over: [Ok ()]
    iff the corrupted epoch was skipped and the previous round's state
    came back intact. *)

(** {1 Quorum torture} *)

type quorum_report = {
  qr_seed : int;
  qr_rate : float;
  qr_n : int;
  qr_rounds : int;  (** rounds the primary completed before it died *)
  qr_killed : int list;  (** standby indexes killed mid-run *)
  qr_quorum_epoch : int;  (** quorum commit point when the primary died *)
  qr_source_epoch : int;  (** primary epoch the election restored *)
  qr_winner : int;
  qr_votes : int;
  qr_evictions : int;
  qr_rejoins : int;
  qr_retransmits : int;
  qr_released : int;  (** outbox messages released at quorum *)
  qr_dropped : int;  (** outbox messages dropped with the lost window *)
  qr_outcome : string;
  qr_ok : bool;
}

val quorum_run :
  ?speculative:bool ->
  seed:int ->
  rounds:int ->
  rate:float ->
  n:int ->
  unit ->
  quorum_report
(** One deterministic run of at most [rounds] rounds to [n] standbys at
    the given link fault rate ({!Aurora_net.Link.lossy_profile}).  With
    [~speculative:true] the primary checkpoints in soft-quiesce mode and
    a run hook mutates a scratch page and a pipe inside every
    speculation window, so each shipped epoch carries validated conflict
    splices; failover must still land on a model-consistent epoch —
    never a half-spliced image.  A run where nothing was ever
    quorum-committed and no survivor holds an epoch passes as "nothing
    committed". *)

val pp_quorum : quorum_report -> string

type quorum_sweep_report = {
  q_runs : int;
  q_ok : int;
  q_evictions : int;
  q_rejoins : int;
  q_retransmits : int;
  q_released : int;
  q_dropped : int;
  q_failures : quorum_report list;
}

val quorum_sweep :
  ?speculative:bool ->
  seed:int ->
  runs_per_cell:int ->
  rates:float list ->
  ns:int list ->
  rounds:int ->
  unit ->
  quorum_sweep_report
(** [runs_per_cell] independent runs for every (replica count, fault
    rate) cell. *)

(** {1 Pipelined vs stop-and-wait} *)

type pipeline_report = {
  pl_rounds : int;
  pl_n : int;
  pl_rate : float;
  pl_sw_plane_ns : int;  (** stop-and-wait: primary time blocked shipping *)
  pl_pipe_plane_ns : int;  (** pipelined: ship calls plus the final drain *)
  pl_sw_total_ns : int;
  pl_pipe_total_ns : int;
  pl_speedup : float;  (** plane-time ratio, the figure the gate checks *)
  pl_sw_ok : bool;  (** every stop-and-wait shipment eventually acked *)
  pl_pipe_ok : bool;  (** pipeline drained with no standby evicted *)
}

val pipeline_vs_stop_and_wait :
  seed:int -> rounds:int -> rate:float -> n:int -> pipeline_report
(** Same workload, same fault profile, N standbys, one engine:
    replication-plane time (primary virtual time blocked in the shipping
    protocol) for stop-and-wait — N single-standby
    {!Aurora_core.Replica_set}s at [~window:1], each shipment drained to
    its ack in series — versus one pipelined set at [~window:4].
    Checkpoint production is excluded — it is identical on both
    sides. *)

(** {1 Live migration} *)

type migration_check = {
  mc_report : Aurora_core.Replica_set.migration_report;
  mc_period_ns : int;  (** the group's checkpoint period, the gate unit *)
  mc_downtime_periods : float;
  mc_ok : bool;  (** identical, verified source, downtime ≤ 2 periods *)
  mc_outcome : string;
}

val migration_run : seed:int -> rate:float -> migration_check
(** One live migration of a service with a shrinking dirty set over a
    link at the given fault rate: pre-copy must converge, the cut-over
    downtime must fit in two checkpoint periods, and the migrated
    epoch must be byte-identical to the source. *)
