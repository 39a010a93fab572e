(** Executor policy: the one place that decides how a grid's independent
    jobs run ([flowsched sweep]/[matrix], [bench],
    {!Flowsched_sim.Experiment}).  Both choices go through
    {!Flowsched_exec.Pool}; the process runs a single OCaml domain.

    - [Inline]: the pool's sequential mode, regardless of [jobs] — the
      reference semantics [Fork] must reproduce byte-for-byte.
    - [Fork]: forked worker processes (crash isolation, SIGKILL-able
      timeouts, Marshal frames).

    Why there is no shared-memory choice: DESIGN.md, "One executor". *)

type t = Inline | Fork

val all : t list
val to_string : t -> string

val of_string : string -> (t, string) result
(** Accepts ["inline" | "fork"]; the [Error] carries a usable one-line
    message, and for ["domains"] says that executor was removed. *)

val map :
  ?backend:t ->
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?base_seed:int ->
  ?backoff:float ->
  ?faults:Flowsched_exec.Faults.plan ->
  ?max_jobs_per_worker:int ->
  ?progress:(Flowsched_exec.Pool.event -> unit) ->
  ?on_result:(int -> 'b Flowsched_exec.Pool.outcome -> unit) ->
  f:('a -> 'b) ->
  'a array ->
  'b Flowsched_exec.Pool.outcome array
(** [Pool.map]'s surface with a [backend] selector (default [Fork]).
    [Inline] is [Pool.map ~jobs:1]; [max_jobs_per_worker] only matters
    for [Fork] (worker recycling). *)
