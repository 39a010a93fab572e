(** Workload generation (§5.2.1).

    "for each time unit t = 0..T-1, a Poisson distribution of mean M is used
    to generate flows released at time t.  For each such flow, an input port
    and an output port is selected uniformly at random."  Demands are unit
    by default; {!poisson_with_demands} adds bounded random demands for the
    Theorem 3 experiments. *)

val poisson :
  m:int -> rate:float -> rounds:int -> seed:int -> Flowsched_switch.Instance.t
(** Unit-capacity, unit-demand [m x m] switch; [rate] is the paper's M.
    The result can have zero flows for tiny [rate * rounds].

    All generators here raise [Invalid_argument] on degenerate parameters
    instead of silently producing empty or NaN-weighted draws: nonpositive
    [rate], [alpha <= 0], [fraction] outside [\[0, 1\]], or
    [max_demand < 1]. *)

val poisson_with_demands :
  m:int -> rate:float -> rounds:int -> max_demand:int -> seed:int ->
  Flowsched_switch.Instance.t
(** Same arrivals, uniform demands in [\[1, max_demand\]], all port
    capacities set to [max_demand] so every flow fits. *)

val uniform_total :
  m:int -> n:int -> max_release:int -> seed:int -> Flowsched_switch.Instance.t
(** Exactly [n] unit flows with uniform ports and uniform releases in
    [\[0, max_release\]] — the workload used for offline algorithm tests
    where a fixed instance size matters more than an arrival process. *)

val skewed :
  m:int -> rate:float -> rounds:int -> ?alpha:float -> seed:int -> unit ->
  Flowsched_switch.Instance.t
(** Poisson arrivals whose endpoints follow a Zipf(alpha) popularity
    distribution over ports (default [alpha = 1.0]) instead of the paper's
    uniform choice — the "distribution of input instances" direction from
    the paper's future-work section.  Hot ports concentrate load, which
    stresses the heuristics' queue management far more than uniform
    traffic. *)

val hotspot :
  m:int -> rate:float -> rounds:int -> ?fraction:float -> seed:int -> unit ->
  Flowsched_switch.Instance.t
(** Poisson arrivals where a [fraction] (default 0.5) of all flows target
    output port 0 (an incast hotspot, e.g. a storage head node); sources
    and the remaining destinations stay uniform. *)

(** {1 Arrival streams}

    The serve loop runs over horizons far longer than any materialized
    instance, so the generators above are also exposed as unbounded
    slot-clocked streams.  A stream draws from the PRNG in exactly the same
    order as the corresponding batch generator: for any seed and horizon
    [T], concatenating [stream_next] over slots [0..T-1] (tagging each
    arrival with its slot) yields precisely the flow specs of the batch
    instance.  Tests rely on this prefix property to replay a served trace
    through the batch engine. *)

type kind =
  | Uniform  (** {!poisson}: uniform endpoints, unit demands. *)
  | Uniform_demands of int
      (** {!poisson_with_demands} with the given [max_demand]. *)
  | Skewed of float  (** {!skewed} with the given [alpha]. *)
  | Hotspot of float  (** {!hotspot} with the given [fraction]. *)

type stream

val stream : kind -> m:int -> rate:float -> seed:int -> stream
(** Raises [Invalid_argument] on [m < 1], negative [rate], or kind
    parameters out of range. *)

val stream_next : stream -> (int * int * int) list
(** Arrivals [(src, dst, demand)] released at the stream's current slot, in
    generation order; advances the stream to the next slot.  The list is
    empty on slots where the Poisson draw is zero. *)

val stream_slot : stream -> int
(** Number of slots generated so far (the slot index the next
    [stream_next] call will produce). *)

(** {1 Kind registry}

    Sweep cells name their workload by string; the base kinds are resolved
    directly by {!Experiment.sweep_instance}, and anything else is looked up
    here.  Higher layers (the scenario zoo) register a resolver at module
    initialization — before any worker forks — so new
    scenario kinds become sweepable by registering in exactly one place and
    the registry is identical in every worker. *)

type gen_params = {
  gen_m : int;  (** ports per side *)
  gen_rate : float;  (** arrival rate (the paper's M) *)
  gen_rounds : int;  (** generation rounds T *)
  gen_max_demand : int;  (** demand bound, for kinds with non-unit demands *)
  gen_seed : int;
}
(** The sweep-cell parameters handed to a registered generator. *)

val register_kinds :
  names:string list -> (string -> (gen_params -> Flowsched_switch.Instance.t) option) -> unit
(** [register_kinds ~names resolve] appends a resolver.  [resolve kind]
    returns the generator for a kind string it recognizes (it may parse
    parameters out of the string, e.g. ["pareto:1.5"]) or [None]; [names]
    are the canonical kind names, used in listings and error messages. *)

val lookup_kind : string -> (gen_params -> Flowsched_switch.Instance.t) option
(** First registered resolver that recognizes the kind string. *)

val registered_kind_names : unit -> string list
