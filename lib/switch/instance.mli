(** Switch instances: the problem input [S_{m,m'} = (P, F)].

    An instance bundles the switch geometry ([m] input ports, [m'] output
    ports, per-port integral capacities) with the flow requests.  Flows are
    stored with [id = index], so algorithm outputs indexed by flow id can be
    resolved directly. *)

type t = private {
  m : int;  (** number of input ports *)
  m' : int;  (** number of output ports *)
  cap_in : int array;
  cap_out : int array;
  flows : Flow.t array;
}

val create :
  ?cap_in:int array -> ?cap_out:int array -> m:int -> m':int -> Flow.t array -> t
(** Capacities default to all-ones (the paper's unit-capacity switch).
    Raises [Invalid_argument] when a flow references a port out of range,
    has [demand < 1] or [release < 0], violates [d_e <= kappa_e =
    min(c_src, c_dst)], when flow ids are not [0..n-1], or when a capacity
    is non-positive. *)

val of_flows :
  ?cap_in:int array -> ?cap_out:int array -> m:int -> m':int ->
  (int * int * int * int) list -> t
(** Convenience: [(src, dst, demand, release)] tuples, ids assigned in
    order. *)

val n : t -> int
(** Number of flows. *)

val dmax : t -> int
(** Maximum demand over flows; [0] when there are none. *)

val kappa : t -> Flow.t -> int
(** [min(c_src, c_dst)] for the flow's ports. *)

val last_release : t -> int

val horizon : t -> int
(** A safe scheduling horizon: every instance admits a schedule finishing
    before this round (serial schedule after the last release). *)

val arrivals : t -> int -> Flow.t list
(** [arrivals inst round] is the flows released at [round], in array
    order.  The flows are bucketed by release once, when [arrivals inst] is
    applied, so replay drivers partially apply it and query every round. *)

val total_demand : t -> int

val scale_capacities : t -> mult:int -> add:int -> t
(** Resource augmentation: every port capacity becomes
    [mult * c + add].  Used to state results "under (1+c) capacities" /
    "capacities +2dmax-1". *)

val to_string : t -> string
(** Plain-text serialization (see {!of_string} for the format). *)

val of_string : string -> (t, string) result
(** Parses the format produced by {!to_string}:
    {v
    switch <m> <m'>
    cap_in <c_1> ... <c_m>        (optional, defaults to ones)
    cap_out <c_1> ... <c_m'>      (optional)
    flow <src> <dst> <demand> <release>   (one line per flow)
    v}
    Blank lines and [#] comments are ignored. *)

val pp : Format.formatter -> t -> unit
