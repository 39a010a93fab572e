(** Span tracing with Chrome trace-event output.

    Disabled by default: {!with_span} then costs one boolean load before
    tail-calling the wrapped function, so instrumentation can stay in place
    permanently.  When enabled via {!start}, each span records a name,
    nesting depth, and wall-clock interval; {!write} emits the buffer as
    Chrome [chrome://tracing] / Perfetto trace-event JSON (complete ["X"]
    events with microsecond timestamps).

    Timestamps come from [Unix.gettimeofday] clamped to be non-decreasing
    (the stdlib has no monotonic clock), so span durations are never
    negative even across NTP steps.

    The session is plain per-process state (the process runs one OCaml
    domain).  {!Flowsched_exec.Pool} workers disable tracing after [fork]
    — only metrics travel back across the result frames. *)

type span = {
  name : string;
  cat : string;  (** trace-event category, default ["flowsched"] *)
  ts_us : float;  (** start, microseconds since {!start} *)
  dur_us : float;
  depth : int;  (** nesting depth at entry; top-level spans have depth 0 *)
  args : (string * Flowsched_util.Json.t) list;
}

val enabled : unit -> bool

val start : unit -> unit
(** Enable tracing and clear any previously recorded spans. *)

val stop : unit -> unit
(** Disable tracing; recorded spans are kept for {!export}/{!write}. *)

val with_span :
  ?cat:string -> ?args:(unit -> (string * Flowsched_util.Json.t) list) -> string ->
  (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; when tracing is enabled, the interval is
    recorded as a span (also when [f] raises).  [args] is only evaluated
    when tracing is enabled. *)

val spans : unit -> span list
(** The recorded spans in order of increasing start time. *)

val to_json : unit -> Flowsched_util.Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] with one ["ph": "X"]
    event per span ([tid] is the nesting depth, so nested spans stack in the
    viewer). *)

val write : string -> unit
(** Write {!to_json} to a file. *)
