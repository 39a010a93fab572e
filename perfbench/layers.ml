(* The per-layer metrics of a traced run.  Every workload reports the same
   names; a layer the workload never calls reads 0.  Layer times are given
   as shares of the traced run's wall time ([trace.wall_s]), so a layer
   that does not run reports a share, not a fake duration. *)

module Metrics = Flowsched_obs.Metrics

type t = {
  mutable wall_s : float;  (** Traced run wall time. *)
  mutable untraced_wall_s : float;  (** The same work with tracing off. *)
  mutable spans : (string, Span.total) Hashtbl.t;
  mutable registry : Metrics.snapshot;  (** Registry diff over the traced run. *)
  mutable lp_minor_words : float;  (** Minor words allocated inside LP-calling spans. *)
  mutable rho_pivots : int;  (** Pivots made inside the rho search. *)
  mutable select_calls : int;
  mutable queue_len_sum : int;
  mutable pool_overhead : float;  (** 1 - busy / (jobs x wall) of the fork run. *)
  mutable pool_retries : int;
  mutable ops : int;  (** Cells, offline passes, or served flows. *)
  mutable minor_words : float;
  mutable major_collections : int;
}

let create () =
  {
    wall_s = 0.;
    untraced_wall_s = 0.;
    spans = Hashtbl.create 1;
    registry = [];
    lp_minor_words = 0.;
    rho_pivots = 0;
    select_calls = 0;
    queue_len_sum = 0;
    pool_overhead = 0.;
    pool_retries = 0;
    ops = 0;
    minor_words = 0.;
    major_collections = 0;
  }

(* Spans that call into the LP layer; simplex phase time is a share of
   their total. *)
let lp_calling =
  [
    "art_lp.lower_bound";
    "mrt_scheduler.min_fractional_rho";
    "simplex.solve.cold";
    "simplex.solve.warm";
    "art_scheduler.solve";
    "mrt_rounding.round";
  ]

let counter_in snapshot name =
  match List.assoc_opt name snapshot with Some (Metrics.Counter n) -> n | _ -> 0

let counter t name = counter_in t.registry name

let gauge t name =
  match List.assoc_opt name t.registry with Some (Metrics.Gauge g) -> g | _ -> 0.

(* Simplex phase 1 + phase 2 time, from the solver's own gauges. *)
let phase_s t = gauge t "simplex.phase1_seconds" +. gauge t "simplex.phase2_seconds"

(* Traced run: GC deltas and registry diff around [f], spans recorded. *)
let trace t f =
  let gc0 = Gc.quick_stat () in
  let before = Metrics.snapshot () in
  Span.start ();
  let r, wall = Clock.timed f in
  Span.stop ();
  let gc1 = Gc.quick_stat () in
  t.wall_s <- wall;
  t.spans <- Span.totals ();
  t.registry <- Metrics.diff (Metrics.snapshot ()) before;
  t.minor_words <- gc1.Gc.minor_words -. gc0.Gc.minor_words;
  t.major_collections <- gc1.Gc.major_collections - gc0.Gc.major_collections;
  r

(* A span around an LP-calling public function, also counting the minor
   words it allocates. *)
let lp_span t name f =
  let w0 = Gc.minor_words () in
  let r = Span.with_span name f in
  t.lp_minor_words <- t.lp_minor_words +. (Gc.minor_words () -. w0);
  r

(* The rho binary search as a span, also counting the pivots it makes. *)
let rho_search t inst =
  let pivots () = (Flowsched_lp.Simplex.read_counters ()).Flowsched_lp.Simplex.pivots in
  let p0 = pivots () in
  let rho =
    lp_span t "mrt_scheduler.min_fractional_rho" (fun () ->
        Flowsched_core.Mrt_scheduler.min_fractional_rho inst)
  in
  t.rho_pivots <- t.rho_pivots + pivots () - p0;
  rho

(* Wrap a policy so each select call is a span and its queue length is
   recorded; the selection itself is unchanged. *)
let traced_policy t (p : Flowsched_online.Policy.t) =
  {
    p with
    Flowsched_online.Policy.select =
      (fun ctx ->
        t.select_calls <- t.select_calls + 1;
        t.queue_len_sum <- t.queue_len_sum + Array.length ctx.Flowsched_online.Policy.queue;
        Span.with_span "policy.select" (fun () -> p.Flowsched_online.Policy.select ctx));
  }

let metrics t =
  let open Report in
  let share name = Stat.ratio (Span.total_s t.spans name) t.wall_s in
  let self_share name = Stat.ratio (Span.self_s t.spans name) t.wall_s in
  let total name = Span.total_s t.spans name in
  let count name = float_of_int (counter t name) in
  let pivots = count "simplex.pivots" in
  let probes = count "mrt.rho_probes" in
  let lp_time = List.fold_left (fun a n -> a +. total n) 0. lp_calling in
  let art = total "art_scheduler.solve" and ir = total "iterative_rounding.run" in
  [
    metric "simplex.pivots" "count" pivots;
    metric "simplex.solves" "count" (count "simplex.solves");
    metric "simplex.refactorizations" "count" (count "simplex.refactorizations");
    metric "simplex.fill_ratio" "ratio"
      (Stat.ratio (count "simplex.factor_nnz") (count "simplex.basis_nnz"));
    metric "simplex.eta_nnz_per_pivot" "nnz/pivot" (Stat.ratio (count "simplex.eta_nnz") pivots);
    metric "simplex.minor_words_per_pivot" "words/pivot" (Stat.ratio t.lp_minor_words pivots);
    metric "simplex.phase_share" "share" (Stat.ratio (phase_s t) lp_time);
    metric "simplex.warm_accept_ratio" "ratio"
      (Stat.ratio (count "simplex.warm_accepted") (count "simplex.warm_attempts"));
    metric "lp.cold_solve_share" "share"
      (Stat.ratio (total "art_lp.build_round_lp" +. total "simplex.solve.cold") t.wall_s);
    metric "lp.warm_resolve_share" "share" (share "simplex.solve.warm");
    metric "mrt_scheduler.rho_search_share" "share" (share "mrt_scheduler.min_fractional_rho");
    metric "mrt_scheduler.rho_probes" "count" probes;
    metric "mrt_scheduler.pivots_per_probe" "pivots/probe"
      (Stat.ratio (float_of_int t.rho_pivots) probes);
    metric "art_lp.bound_share" "share" (share "art_lp.lower_bound");
    metric "art_scheduler.solve_share" "share" (share "art_scheduler.solve");
    metric "iterative_rounding.run_share" "share" (share "iterative_rounding.run");
    metric "iterative_rounding.iterations" "count" (count "ir.iterations");
    metric "art_scheduler.convert_share" "share" (Stat.ratio (Float.max 0. (art -. ir)) t.wall_s);
    metric "bvn.color_classes" "count" (count "bvn.color_classes");
    metric "mrt_rounding.round_share" "share" (share "mrt_rounding.round");
    metric "engine.run_share" "share" (share "engine.run_instance");
    metric "policy.select_share" "share" (share "policy.select");
    metric "policy.queue_len_mean" "flows"
      (Stat.ratio (float_of_int t.queue_len_sum) (float_of_int t.select_calls));
    metric "server.self_share" "share" (self_share "server.run");
    metric "source.pull_share" "share" (share "source.pull");
    metric "pool.overhead_share" "share" t.pool_overhead;
    metric "pool.retries" "count" (float_of_int t.pool_retries);
    metric "report.encode_share" "share" (share "report.sweep_json");
    metric "gc.minor_words_per_op" "words/op"
      (Stat.ratio t.minor_words (float_of_int t.ops));
    metric "gc.major_collections" "count" (float_of_int t.major_collections);
    metric "trace.wall_s" "s" t.wall_s;
    metric "trace.overhead_s" "s" (t.wall_s -. t.untraced_wall_s);
  ]
