(* sweep-lp: an LP-bounded sweep grid through the fork executor, the path
   the Figure 6/7 reproduction runs. *)

module E = Flowsched_sim.Experiment
module H = Flowsched_online.Heuristics
module Simplex = Flowsched_lp.Simplex
module Json = Flowsched_util.Json

let jobs = 2
let policies = [ H.maxcard; H.minrtime; H.maxweight; H.fifo ]
let kinds = [ "poisson"; "hotspot"; "skewed" ]
let rates = [ 2.0; 3.0; 4.0; 5.0 ]
let horizons = [ 8; 10 ]
let seeds_per_point = 5

(* 3 kinds x 4 rates x 2 horizons x 5 seeds = 120 cells, m = 6, LP on.
   The cells are fixed and [--seed] only rotates their order, which changes
   how the pool deals them to its workers: the cell times of a grid this
   size are heavy-tailed, and grids drawn from different seeds differ by
   +-20% in cell rate and p90, more than any bound allows. *)
let grid seed =
  let cells =
    List.concat_map
      (fun workload ->
        List.concat_map
          (fun arrival_rate ->
            List.concat_map
              (fun horizon ->
                List.init seeds_per_point (fun k ->
                    {
                      E.workload;
                      ports = 6;
                      arrival_rate;
                      horizon;
                      max_demand = 1;
                      sweep_seed = k;
                      lp = true;
                    }))
              horizons)
          rates)
      kinds
  in
  let r = seed mod List.length cells in
  List.filteri (fun i _ -> i >= r) cells @ List.filteri (fun i _ -> i < r) cells

let describe (c : E.sweep_config) =
  Printf.sprintf "%s rate=%.1f T=%d seed=%d" c.E.workload c.E.arrival_rate c.E.horizon
    c.E.sweep_seed

(* The grid, with every cell's instance generated once (cells regenerate
   their instance from the config when they run). *)
let setup seed =
  let cells = grid seed in
  List.iter (fun c -> ignore (E.sweep_instance c)) cells;
  cells

let strip_json results =
  Json.to_string ~pretty:false
    (Flowsched_sim.Report.sweep_json (List.map Flowsched_sim.Report.strip_sweep_timing results))

(* Lemma 3.1 sandwich and clean LP section, per cell. *)
let check_cell (r : E.sweep_result) =
  let eps = 1e-6 in
  Report.op
    (describe r.E.sweep)
    ([
       ("no lp_error", r.E.lp_error = None);
       ("flows > 0", r.E.flows > 0);
       ("lp bounds finite", Float.is_finite r.E.lp_avg && Float.is_finite r.E.lp_max);
     ]
    @ List.concat_map
        (fun (p : E.sweep_policy_result) ->
          [
            (p.E.policy ^ ": lp_avg <= ART", r.E.lp_avg <= p.E.art +. eps);
            (p.E.policy ^ ": lp_max <= MRT", r.E.lp_max <= float_of_int p.E.mrt +. eps);
          ])
        r.E.per_policy)

(* One fork-pool pass over the grid, each cell timed inside its worker. *)
let fork_pass cells =
  let out, wall =
    Clock.timed (fun () ->
        E.map_cells ~backend:Flowsched_domains.Backend.Fork ~jobs ~describe ~progress:ignore
          ~f:(fun c -> Clock.timed (fun () -> E.run_sweep_cell ~policies c))
          cells)
  in
  (List.map fst out, Array.of_list (List.map snd out), wall)

(* Passes over the grid repeat until the time is up; the run reports the
   median over its passes of each pass's cell rate and raw-sample cell-time
   percentiles, which keeps passes slowed by something outside the process
   from moving it.  (Each cell's fastest time does not settle: it kept
   falling by a few percent per pass after 19 passes.) *)
let run ~seed ~seconds =
  let cells = setup seed in
  let n = List.length cells in
  let passes = ref [] in
  let first = ref "" in
  let t_end = Clock.now () +. seconds in
  while !passes = [] || Clock.now () < t_end do
    (* Start each repetition from a compacted heap: neither its time nor the
       peak resident set then depends on garbage left by the one before. *)
    Gc.compact ();
    let results, cell_s, wall = fork_pass cells in
    let q = Stat.rank_quantile (Stat.sorted (Array.map (fun s -> s *. 1e3) cell_s)) in
    let json = strip_json results in
    if !passes = [] then begin
      List.iter check_cell results;
      first := json;
      Report.first_rep_done ()
    end
    else Report.op "repeated pass is byte-identical" [ ("identical", json = !first) ];
    passes := (float_of_int n /. wall, q 0.5, q 0.9) :: !passes
  done;
  let med f = Stat.median (Array.of_list (List.map f !passes)) in
  let cells_per_s = med (fun (r, _, _) -> r) in
  let p50 = med (fun (_, p, _) -> p) and p90 = med (fun (_, _, p) -> p) in
  let note =
    Printf.sprintf "(median over %d passes of %d cells, jobs=%d)" (List.length !passes) n jobs
  in
  let named =
    [
      Report.metric "sweep_cells_per_s" "1/s" cells_per_s ~note;
      Report.metric "sweep_cell_p50_ms" "ms" p50 ~note;
      Report.metric "sweep_cell_p90_ms" "ms" p90 ~note;
    ]
  in
  (cells_per_s, p50, p90, named)

(* One sweep cell made of the same public calls as
   [Experiment.run_sweep_cell], each inside a span. *)
let traced_cell (lt : Layers.t) ~policies (s : E.sweep_config) =
  let t0 = Clock.now () in
  let inst = Span.with_span "experiment.sweep_instance" (fun () -> E.sweep_instance s) in
  let flows = Flowsched_switch.Instance.n inst in
  let max_makespan = ref 0 in
  let per_policy =
    List.map
      (fun (p : Flowsched_online.Policy.t) ->
        let name = p.Flowsched_online.Policy.name in
        if flows = 0 then { E.policy = name; art = nan; mrt = 0 }
        else begin
          let r =
            Span.with_span "engine.run_instance" (fun () ->
                Flowsched_sim.Engine.run_instance p inst)
          in
          max_makespan := max !max_makespan r.Flowsched_sim.Engine.makespan;
          {
            E.policy = name;
            art = Flowsched_sim.Engine.average_response r;
            mrt = Flowsched_sim.Engine.max_response r;
          }
        end)
      policies
  in
  let lp_avg, lp_max, lp_counters, lp_error =
    if s.E.lp && flows > 0 then begin
      let before = Simplex.read_counters () in
      let diff () = Some (Simplex.diff_counters (Simplex.read_counters ()) before) in
      try
        let horizon = max (Flowsched_core.Art_lp.default_horizon inst) !max_makespan in
        let bound =
          Layers.lp_span lt "art_lp.lower_bound" (fun () ->
              Flowsched_core.Art_lp.lower_bound ~horizon inst)
        in
        let rho = Layers.rho_search lt inst in
        (bound.Flowsched_core.Art_lp.average, float_of_int rho, diff (), None)
      with (Simplex.Iteration_limit _ | Failure _) as e ->
        (nan, nan, diff (), Some (Printexc.to_string e))
    end
    else (nan, nan, None, None)
  in
  {
    E.sweep = s;
    flows;
    per_policy;
    lp_avg;
    lp_max;
    lp_counters;
    lp_error;
    wall_s = Clock.now () -. t0;
  }

let trace ~seed (lt : Layers.t) =
  let cells = setup seed in
  (* Executor: the fork pass, its busy share and retries. *)
  let before = Flowsched_obs.Metrics.snapshot () in
  let fork_results, cell_s, wall = fork_pass cells in
  let pool = Flowsched_obs.Metrics.diff (Flowsched_obs.Metrics.snapshot ()) before in
  lt.Layers.pool_overhead <- 1. -. (Stat.sum cell_s /. (float_of_int jobs *. wall));
  lt.Layers.pool_retries <- Layers.counter_in pool "pool.retries";
  (* Untraced reference: the library's own sweep, inline. *)
  let inline_results, untraced =
    Clock.timed (fun () ->
        E.run_sweep ~policies ~backend:Flowsched_domains.Backend.Inline ~jobs:1 cells)
  in
  lt.Layers.untraced_wall_s <- untraced;
  let traced_policies = List.map (Layers.traced_policy lt) policies in
  let traced_results =
    Layers.trace lt (fun () ->
        let rs =
          List.mapi
            (fun i c ->
              Span.set_id i;
              Span.with_span "experiment.cell" (fun () ->
                  traced_cell lt ~policies:traced_policies c))
            cells
        in
        Span.set_id (-1);
        ignore
          (Span.with_span "report.sweep_json" (fun () ->
               Json.to_string (Flowsched_sim.Report.sweep_json rs)));
        rs)
  in
  lt.Layers.ops <- List.length cells;
  List.iter check_cell traced_results;
  let f = strip_json fork_results in
  Report.op "sweep artifact: fork = inline run_sweep = inline traced"
    [
      ("fork = inline run_sweep", f = strip_json inline_results);
      ("fork = traced", f = strip_json traced_results);
    ];
  let total name = Span.total_s lt.Layers.spans name in
  let rho_s = total "mrt_scheduler.min_fractional_rho" in
  [
    Report.metric "art_lp.bound_s" "s" (total "art_lp.lower_bound");
    Report.metric "mrt_scheduler.rho_search_s" "s" rho_s;
    Report.metric "mrt_scheduler.s_per_probe" "s"
      (Stat.ratio rho_s (float_of_int (Layers.counter lt "mrt.rho_probes")));
    Report.metric "simplex.phase_s" "s" (Layers.phase_s lt);
    Report.metric "engine.run_s" "s" (total "engine.run_instance");
    Report.metric "policy.select_s" "s" (total "policy.select");
    Report.metric "report.encode_s" "s" (total "report.sweep_json");
  ]
