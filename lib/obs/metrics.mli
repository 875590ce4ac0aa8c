(** Named metrics: counters, gauges, and latency histograms.

    A process-wide registry, off by default.  Instrumentation sites
    obtain handles once at module initialization ([let m = Metrics.counter
    "dev.submissions"]) and record through them; when the registry is
    disabled a record is a single branch, so handles can live in hot
    paths.  Histograms store exact samples ({!Aurora_util.Histogram})
    and report interpolated percentiles plus a log2-bucketed shape in
    {!report}.

    Registration is idempotent by name: asking for an existing metric
    returns the same handle (asking with a different kind raises
    [Invalid_argument]), so tests and instrumentation sites can share
    handles by name alone. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val is_enabled : unit -> bool

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) when the registry is enabled; otherwise one
    branch. *)

val value : counter -> int

val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

val observe : histogram -> float -> unit
val observe_ns : histogram -> int -> unit

val summary : histogram -> int * float * float * float
(** [(count, p50, p99, max)] with interpolated percentiles; all zeros
    when empty. *)

val reset : unit -> unit
(** Zero every counter and gauge and clear every histogram (handles stay
    valid; the enabled flag is untouched). *)

val report : unit -> string
(** Text report: counters and gauges in registration order, then one
    block per histogram with count, p50/p99 (interpolated), max, and a
    sparse log2 bucket listing. *)
