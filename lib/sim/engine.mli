(** Round-based flow-level simulator: one slot loop, two cores, and the
    drivers over them.

    The paper's "in-house simulator for online flow scheduling over a
    non-blocking switch" (§5.2.1) is one loop: each round it keeps the
    released-but-unscheduled flows, lets a heuristic extract a feasible set,
    and retires it.  {!loop} is that loop; a {!core} keeps the pending flows
    and picks each slot's set.  Flows run whole-in-one-round, which matches
    both the offline model and the paper's unit-size experiments.

    Three drivers run the loop: {!run_instance} replays a fixed instance,
    {!run_adaptive} lets an arrival callback observe the live queue (the
    adaptive adversaries of Figure 4 need exactly that power), and
    [Flowsched_serve.Server.run] serves unbounded streams under
    backpressure.  The two batch drivers check every selection and record
    per-flow response times. *)

type core =
  | Policy of Flowsched_online.Policy.t
      (** The policy over an oldest-first queue, kept in a growable array:
          admit appends, and the flows [select] chose are marked and the
          survivors compacted in place.  [select] gets an exact-length copy,
          reused while nothing arrives or leaves. *)
  | Incremental
      (** A maximum b-matching kept across slots; unit demands only, [admit]
          raises [Invalid_argument] otherwise. *)

type running = {
  admit : Flowsched_switch.Flow.t list -> unit;
  step : int -> Flowsched_switch.Flow.t list;  (** Pick and retire this slot's flows. *)
  pending : unit -> int;
}

val start : m:int -> m':int -> cap_in:int array -> cap_out:int array -> core -> running

type tally = {
  slots : int;
  makespan : int;  (** Last slot (1-based) in which anything was scheduled. *)
  idle_slots : int;  (** Slots with flows pending but nothing scheduled. *)
  peak_pending : int;  (** Most flows pending after any step. *)
}

val loop :
  running -> live:(int -> bool) -> arrive:(int -> Flowsched_switch.Flow.t list) ->
  fold:(int -> Flowsched_switch.Flow.t list -> unit) -> tally
(** Runs slots 0, 1, … while [live slot]: admits [arrive slot], steps the
    core, and hands the scheduled flows to [fold slot]. *)

type result = {
  flows : Flowsched_switch.Flow.t array;  (** Everything that arrived. *)
  schedule : Flowsched_switch.Schedule.t;  (** Round each flow ran in. *)
  responses : int array;  (** Per-flow response times. *)
  makespan : int;
  rounds_idle : int;  (** Rounds where the policy scheduled nothing while flows were pending. *)
}

exception Policy_violation of string
(** Raised when a policy returns an out-of-range or repeated index, or a
    capacity-infeasible selection. *)

exception Horizon_exceeded of { round : int; pending : int }
(** Raised when a run reaches [max_rounds] with flows still queued or still
    to arrive: the policy is starving flows or arrivals outpace capacity.
    Carries the round reached and the queue depth at that point so drivers
    can report how far the run got instead of a bare failure. *)

val run_instance :
  ?endpoint:Flowsched_switch.Endpoint.t -> ?max_rounds:int ->
  Flowsched_online.Policy.t -> Flowsched_switch.Instance.t -> result
(** Replays the instance's flows at their release times and runs until the
    queue drains.  The result's flow array is the instance's.  Raises
    {!Horizon_exceeded} at [max_rounds] (default 100000).  With [endpoint],
    every selection is also checked against the node capacities — the
    scenario matrix uses this to certify its capacity-aware policy
    wrappers. *)

val average_response : result -> float
val max_response : result -> int

val run_adaptive :
  m:int -> m':int ->
  arrivals:(round:int -> pending:Flowsched_switch.Flow.t list -> (int * int * int) list) ->
  stop_arrivals_after:int ->
  Flowsched_online.Policy.t -> result
(** [arrivals ~round ~pending] returns the [(src, dst, demand)] specs
    released this round on a unit-capacity switch; it sees the current
    queue, so it can be adversarial.  After [stop_arrivals_after] rounds the
    callback is no longer consulted and the engine runs until the queue
    drains (raising {!Horizon_exceeded} at round 100000). *)
