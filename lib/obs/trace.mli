(** Span tracing over the virtual clock.

    A Dapper-style tracer for the checkpoint pipeline: spans nest, carry
    a category and key/value arguments, and are stamped from the
    simulator's virtual clock, so a trace is a deterministic function of
    the workload — two runs with the same seed export byte-identical
    traces.  Events land in a fixed-capacity ring buffer (oldest events
    are dropped and counted once full) and export either as Chrome
    trace-event JSON (load in [chrome://tracing] / Perfetto) or as an
    indented text timeline.

    The tracer is a process-wide singleton and is {e off} by default.
    Every recording entry point first checks the singleton: when
    disabled, [with_span] is a single branch plus the call to the traced
    thunk, and the other entry points are a single branch — cheap enough
    to leave in every hot path (gated by [bench/main.exe obs_overhead]).
    Call sites that must compute arguments should guard with {!is_on} so
    argument construction is also skipped when disabled. *)

type arg = Int of int | Str of string

type phase =
  | Begin  (** span open ([ph:"B"]) *)
  | End  (** span close ([ph:"E"]) *)
  | Instant  (** point event ([ph:"i"]) *)
  | Complete  (** explicit-duration event ([ph:"X"]) *)
  | Counter  (** sampled value ([ph:"C"]) *)

type event = {
  ev_ts : int;  (** virtual nanoseconds *)
  ev_dur : int;  (** [Complete] events only; 0 otherwise *)
  ev_ph : phase;
  ev_cat : string;
  ev_name : string;
  ev_args : (string * arg) list;
}

val enable : ?capacity:int -> clock:Aurora_sim.Clock.t -> unit -> unit
(** Turn the tracer on, stamping events from [clock].  [capacity]
    (default 65536) bounds the ring buffer.  Replaces any previous
    tracer and discards its events. *)

val disable : unit -> unit
(** Turn the tracer off and discard all buffered events. *)

val is_on : unit -> bool

val with_span :
  ?args:(string * arg) list -> cat:string -> name:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span: a [Begin] event at the current virtual
    time, the thunk, an [End] event at the (possibly advanced) virtual
    time.  Exception-safe: the span is closed even if the thunk raises.
    When the tracer is off this is one branch and a call. *)

val instant : ?ts:int -> ?args:(string * arg) list -> cat:string -> string -> unit
(** A point event, at virtual-now unless [ts] is given (events recorded
    from a clock other than the tracer's, e.g. an HA standby). *)

val complete :
  ts:int -> dur:int -> ?args:(string * arg) list -> cat:string -> string -> unit
(** An explicit-timestamp, explicit-duration event — the shape for
    asynchronous windows whose completion trails the submitting code
    (device submissions, the checkpoint flush-to-durable window). *)

val counter : ?ts:int -> cat:string -> name:string -> int -> unit
(** A sampled counter value (renders as a stacked chart in Chrome). *)

val events : unit -> event list
(** Buffered events, oldest first.  Empty when disabled. *)

val dropped : unit -> int
(** Events evicted from the ring since {!enable}/{!reset}. *)

val reset : unit -> unit
(** Discard buffered events but keep the tracer enabled. *)

val export_json : unit -> string
(** Chrome trace-event JSON ([{"traceEvents": [...]}]); timestamps are
    integer virtual nanoseconds (the file declares
    ["displayTimeUnit": "ns"]). *)

val export_text : unit -> string
(** Indented text timeline: one line per event, [Begin]/[End] pairs
    rendered as a nested tree with per-span virtual durations. *)

(** {1 Checkpoint epoch accounting} *)

val spans : string -> event list -> (int * int) list
(** [(start, duration)] of every completed span named [name]. *)

val last_epoch : event list -> event list
(** The events from the last [epoch] span's [Begin] onward. *)

type epoch_phases = {
  epoch_ns : int;
  speculate_ns : int;  (** 0 when the soft window was empty *)
  stop_phases_ns : int;  (** sum of the stop window's phase spans *)
  flush_ns : int;  (** 0 for memory-only cycles *)
  error : string option;  (** the first identity that fails *)
}

val epoch_partition : stop_ns:int -> event list -> epoch_phases
(** Check one checkpoint epoch's phase accounting on its events: the
    epoch span and each stop-window phase span ([quiesce], [collapse],
    [validate] after a soft window or [serialize] after an empty one,
    [shadow], [resume]) occur once, [speculate] and [flush] at most
    once; the stop phases sum to [stop_ns] and, with speculate and
    flush, to the epoch span. *)
