(** FS-MRT solver (Theorem 3 applied through a search on rho).

    The minimum maximum response time [rho*] of a fractional schedule is
    found by searching on the feasibility of LP (19)–(21) with
    [R(e) = \[r_e, r_e + rho)] — feasibility is monotone in [rho].  Since
    the LP is a relaxation, [rho*] lower bounds the optimal integral
    maximum response time; rounding the solution at [rho*] then yields a
    schedule with maximum response at most [rho*] <= OPT under port
    capacities augmented by [2 dmax - 1].  For unit demands that is the
    +1 augmentation that Theorem 2's 4/3-hardness shows to be necessary
    (Remark 4.4). *)

type solution = {
  rho : int;  (** Max response of the returned schedule (<= fractional opt). *)
  fractional_rho : int;  (** Minimum fractionally feasible rho (LP bound). *)
  schedule : Flowsched_switch.Schedule.t;
  augmented : Flowsched_switch.Instance.t;
      (** Capacities raised by [2 dmax - 1]; [schedule] is valid for it. *)
  rounding : Mrt_rounding.outcome;
}

val feasible_rho : Flowsched_switch.Instance.t -> int -> bool
(** Fractional feasibility of a target maximum response time. *)

val density_lower_bound : Flowsched_switch.Instance.t -> int
(** A lower bound on the least fractionally feasible rho, in exact
    integers: the largest [ceil ((D_p(a, b) - c_p (b - a)) / c_p)] over
    ports [p] (inputs and outputs) and release windows [a <= b], where
    [D_p(a, b)] is the total demand at [p] released in rounds [a..b] and
    [c_p] its capacity; at least [1].  Proof: those flows may only use
    rounds [a..b + rho - 1], and summing their assignment rows (20) against
    [p]'s capacity rows (19) over those [b - a + rho] rounds gives
    [D_p(a, b) <= c_p (b - a + rho)].  One [O(last_release)] scan per port
    that carries a flow. *)

val min_fractional_rho : ?hi:int -> ?warm_start:bool -> Flowsched_switch.Instance.t -> int
(** The smallest fractionally feasible rho.  The search starts at
    [lo = min hi (density_lower_bound inst)] and gallops up, probing
    [lo, lo + 2, lo + 6, lo + 14, ...] (capped at [hi]) until a probe LP is
    feasible, then bisects the bracket the gallop leaves.  Every rho below
    the bound is infeasible, so on most instances the first probe confirms
    the answer; the result is always confirmed by an LP solve, and
    [rho - 1] is shown infeasible either by the bound or by a probe.  [hi]
    defaults to a horizon at which feasibility is guaranteed; raises
    [Failure] when the probe at [hi] is infeasible.  [warm_start] (default
    [true]) seeds each bisection probe with the optimal basis of the last
    feasible probe; the gallop probes run cold (no feasible basis exists
    yet), and the result is identical either way. *)

val solve : ?rho:int -> Flowsched_switch.Instance.t -> solution
(** [solve inst] computes [rho = min_fractional_rho inst] (unless given)
    and rounds.  Raises [Failure] if the given [rho] is infeasible. *)

val solve_with_deadlines :
  Flowsched_switch.Instance.t -> deadlines:int array -> solution option
(** Remark 4.2: individual (inclusive) deadlines instead of a uniform
    response bound.  [None] when no schedule can meet the deadlines even
    fractionally; otherwise the schedule meets every deadline under the
    augmented capacities.  [rho]/[fractional_rho] report the achieved max
    response. *)
