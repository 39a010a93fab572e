(** The policy x workload sweep matrix, with neighboring-problem modes.

    A cell is a {!Scenario.spec} (which workload), a {!mode} (which problem
    variant), and an LP flag.  Modes:

    - {!Flows}: the paper's problem — every policy runs the instance, LP
      (1)-(4) and the min fractional rho give per-cell lower bounds
      ([bound_kind = "lp"]).
    - {!Endpoint}: endpoint-capacity constraints (Pa-Rajaraman-Stalfa
      2021).  Ports are grouped into balanced contiguous node blocks with a
      shared per-node capacity (raised to the instance's dmax so every flow
      fits its nodes alone); policies run behind a node-capacity guard and
      the engine validates every round against the node caps.  A
      capacity-aware FIFO baseline rides along, and the port-only LP stays
      a valid relaxed bound ([bound_kind = "lp-relaxed"]).
    - {!Coflow}: weighted coflow completion time (Im-Purohit direction).
      Flows are grouped into coflows with seeded random weights; weighted
      SEBF, unweighted SEBF, and flow-level FIFO are compared against the
      weighted bottleneck lower bound ([bound_kind = "bottleneck"]).

    Results are deterministic in the cell specs alone: the artifact JSON
    carries no timing or jobs metadata, so runs are byte-identical across
    [--jobs] and across the inline and fork backends. *)

type mode =
  | Flows
  | Endpoint of { nodes : int; node_cap : int }
  | Coflow of { groups : int; max_weight : int }

val mode_names : string list

val mode_of_string : string -> (mode, string) result
(** ["flows"], ["endpoint\[:nodes\[:cap\]\]"] (defaults 2:2),
    ["coflow\[:groups\[:max_weight\]\]"] (defaults 4:4).
    [mode_of_string (mode_to_string m) = Ok m]. *)

val mode_to_string : mode -> string

type cell = { scenario : Scenario.spec; mode : mode; lp : bool }

type entry = { name : string; art : float; mrt : int }
(** One algorithm's row in a cell: average and maximum response time (for
    Coflow mode: weighted average and group maximum). *)

type cell_result = {
  cell : cell;
  flows : int;
  entries : entry list;
  bound_kind : string;  (** ["lp"] | ["lp-relaxed"] | ["bottleneck"] | ["none"]. *)
  bound_avg : float;  (** Lower bound on the average objective; nan if none. *)
  bound_max : float;  (** Lower bound on the maximum objective; nan if none. *)
  error : string option;  (** LP failure text (bounds degraded to nan). *)
}

val run_cell : policies:Flowsched_online.Policy.t list -> cell -> cell_result
(** [policies] drive the Flows and Endpoint modes; Coflow mode has its own
    fixed algorithm set (wsebf/sebf/flow-fifo). *)

val run :
  policies:Flowsched_online.Policy.t list ->
  ?progress:(string -> unit) ->
  ?backend:Flowsched_domains.Backend.t ->
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?faults:Flowsched_exec.Faults.plan ->
  ?on_result:(cell -> cell_result -> unit) ->
  cell list -> cell_result list
(** Fans the cells over {!Flowsched_sim.Experiment.map_cells}; same
    retry/timeout/fault/ordering contract, results in input order. *)

val cell_json : cell_result -> Flowsched_util.Json.t

val to_json : cell_result list -> Flowsched_util.Json.t
(** The matrix artifact, schema ["flowsched-matrix/1"]. *)

val cell_key : cell -> string
(** Canonical checkpoint identity of a cell, e.g.
    ["matrix|poisson|mode=flows|m=8|rate=0x1p+1|T=60|dmax=4|seed=7|lp=true"].
    Floats print in hex ([%h]) so the key is exact. *)

val cell_result_of_json :
  cell:cell -> Flowsched_util.Json.t -> (cell_result, string) result
(** Exact inverse of {!cell_json}, validated against [cell]: every identity
    field in the JSON must match the cell it claims to be, so a stale or
    spliced checkpoint entry is rejected rather than silently adopted. *)

val run_checkpointed :
  policies:Flowsched_online.Policy.t list ->
  ?progress:(string -> unit) ->
  ?backend:Flowsched_domains.Backend.t ->
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?faults:Flowsched_exec.Faults.plan ->
  ?on_append:(string -> unit) ->
  Flowsched_sim.Checkpoint.t ->
  cell list ->
  cell_result list
(** {!run} through a {!Flowsched_sim.Checkpoint}: previously recorded
    cells are decoded (and re-validated) instead of re-run, fresh results
    are appended CRC-sealed as they arrive, and the returned list is in
    input order either way.  Matrix artifacts carry no timing metadata, so
    a resumed artifact is byte-identical to an uninterrupted one. *)
