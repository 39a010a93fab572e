open Flowsched_switch
open Flowsched_util

type cell_config = {
  m : int;
  rate : float;
  rounds : int;
  tries : int;
  seed : int;
  with_lp : bool;
}

type cell_result = {
  config : cell_config;
  flows_mean : float;
  avg_response : (string * float) list;
  max_response : (string * float) list;
  lp_avg_bound : float;
  lp_max_bound : float;
}

let run_cell ~policies config =
  let per_policy_avg = Hashtbl.create 8 and per_policy_max = Hashtbl.create 8 in
  let lp_avgs = ref [] and lp_maxs = ref [] in
  let flow_counts = ref [] in
  let names = List.map (fun (p : Flowsched_online.Policy.t) -> p.Flowsched_online.Policy.name) policies in
  List.iter
    (fun name ->
      Hashtbl.replace per_policy_avg name [];
      Hashtbl.replace per_policy_max name [])
    names;
  for trial = 0 to config.tries - 1 do
    let seed = config.seed + (1000 * trial) in
    let inst = Workload.poisson ~m:config.m ~rate:config.rate ~rounds:config.rounds ~seed in
    if Instance.n inst > 0 then begin
      flow_counts := float_of_int (Instance.n inst) :: !flow_counts;
      let max_makespan = ref 0 in
      List.iter
        (fun (p : Flowsched_online.Policy.t) ->
          let r = Engine.run_instance p inst in
          max_makespan := max !max_makespan r.Engine.makespan;
          let name = p.Flowsched_online.Policy.name in
          Hashtbl.replace per_policy_avg name
            (Engine.average_response r :: Hashtbl.find per_policy_avg name);
          Hashtbl.replace per_policy_max name
            (float_of_int (Engine.max_response r) :: Hashtbl.find per_policy_max name))
        policies;
      if config.with_lp then begin
        (* Horizon must cover the heuristics' schedules for Lemma 3.1 to
           bound them. *)
        let horizon = max (Flowsched_core.Art_lp.default_horizon inst) !max_makespan in
        let bound = Flowsched_core.Art_lp.lower_bound ~horizon inst in
        lp_avgs := bound.Flowsched_core.Art_lp.average :: !lp_avgs;
        let rho = Flowsched_core.Mrt_scheduler.min_fractional_rho inst in
        lp_maxs := float_of_int rho :: !lp_maxs
      end
    end
  done;
  let mean = function [] -> nan | xs -> Stats.mean (Array.of_list xs) in
  {
    config;
    flows_mean = mean !flow_counts;
    avg_response = List.map (fun n -> (n, mean (Hashtbl.find per_policy_avg n))) names;
    max_response = List.map (fun n -> (n, mean (Hashtbl.find per_policy_max n))) names;
    lp_avg_bound = (if config.with_lp then mean !lp_avgs else nan);
    lp_max_bound = (if config.with_lp then mean !lp_maxs else nan);
  }

(* Fan a list of independent cells across a Pool; results come back in
   input order, so output is identical to the sequential path (jobs <= 1
   goes through the pool's inline mode, which shares the retry, timeout,
   backoff, and fault-injection semantics of the forked path). *)
let pool_map ?backend ~jobs ?timeout ?(retries = 1) ?faults ?on_result ~describe ~progress ~f
    items =
  let arr = Array.of_list items in
  let open Flowsched_exec in
  let on_result =
    match on_result with
    | None -> None
    | Some g ->
        (* Only settled successes are worth persisting; a Failed cell
           aborts the run below anyway. *)
        Some (fun job -> function Pool.Done r -> g arr.(job) r | Pool.Failed _ -> ())
  in
  Flowsched_domains.Backend.map ?backend ~jobs:(max 1 jobs) ?timeout ~retries ?faults
    ?on_result
    ~progress:(function
      | Pool.Job_started { job; _ } -> progress (describe arr.(job))
      | Pool.Job_done { job; elapsed; _ } ->
          progress (Printf.sprintf "done %s (%.1fs)" (describe arr.(job)) elapsed)
      | Pool.Job_retried { job; reason; _ } ->
          progress (Printf.sprintf "retrying %s: %s" (describe arr.(job)) reason)
      | Pool.Job_failed { job; reason; _ } ->
          progress (Printf.sprintf "FAILED %s: %s" (describe arr.(job)) reason))
    ~f arr
  |> Array.to_list
  |> List.map (function
       | Pool.Done r -> r
       | Pool.Failed { attempts; reason } ->
           failwith
             (Printf.sprintf "experiment job failed after %d attempts: %s" attempts reason))

let map_cells = pool_map

let describe_cell config =
  Printf.sprintf "cell m=%d rate=%.1f T=%d lp=%b" config.m config.rate config.rounds
    config.with_lp

let run_grid ~policies ?(progress = fun _ -> ()) ?backend ?(jobs = 1) ?timeout ?retries
    ?faults ?on_result configs =
  pool_map ?backend ~jobs ?timeout ?retries ?faults ?on_result ~describe:describe_cell
    ~progress ~f:(run_cell ~policies) configs

(* ------------------------------------------------------------------ *)
(* Sweep cells: one workload instance per cell (no averaging), every    *)
(* policy measured, optional LP bounds, wall-clock recorded — the unit  *)
(* of the machine-readable sweep artifact.                              *)
(* ------------------------------------------------------------------ *)

type sweep_config = {
  workload : string;
  ports : int;
  arrival_rate : float;
  horizon : int;
  max_demand : int;
  sweep_seed : int;
  lp : bool;
}

type sweep_policy_result = { policy : string; art : float; mrt : int }

type sweep_result = {
  sweep : sweep_config;
  flows : int;
  per_policy : sweep_policy_result list;
  lp_avg : float;
  lp_max : float;
  lp_counters : Flowsched_lp.Simplex.counters option;
  lp_error : string option;
  wall_s : float;
}

let sweep_workloads = [ "poisson"; "poisson-demands"; "uniform"; "skewed"; "hotspot" ]

let sweep_instance s =
  match s.workload with
  | "poisson" ->
      Workload.poisson ~m:s.ports ~rate:s.arrival_rate ~rounds:s.horizon ~seed:s.sweep_seed
  | "poisson-demands" ->
      Workload.poisson_with_demands ~m:s.ports ~rate:s.arrival_rate ~rounds:s.horizon
        ~max_demand:s.max_demand ~seed:s.sweep_seed
  | "skewed" ->
      Workload.skewed ~m:s.ports ~rate:s.arrival_rate ~rounds:s.horizon ~seed:s.sweep_seed ()
  | "hotspot" ->
      Workload.hotspot ~m:s.ports ~rate:s.arrival_rate ~rounds:s.horizon ~seed:s.sweep_seed ()
  | "uniform" ->
      (* Same expected volume as the arrival processes: rate * rounds flows. *)
      let n = max 1 (int_of_float (s.arrival_rate *. float_of_int s.horizon)) in
      Workload.uniform_total ~m:s.ports ~n ~max_release:s.horizon ~seed:s.sweep_seed
  | other -> (
      (* Not a built-in: consult the extensible kind registry (the scenario
         zoo registers its generators there at init time). *)
      match Workload.lookup_kind other with
      | Some generate ->
          generate
            {
              Workload.gen_m = s.ports;
              gen_rate = s.arrival_rate;
              gen_rounds = s.horizon;
              gen_max_demand = s.max_demand;
              gen_seed = s.sweep_seed;
            }
      | None ->
          invalid_arg
            (Printf.sprintf "Experiment.sweep_instance: unknown workload %S (expected %s)"
               other
               (String.concat "|" (sweep_workloads @ Workload.registered_kind_names ()))))

let sweep_kind_known kind =
  List.mem kind sweep_workloads || Workload.lookup_kind kind <> None

(* Test seam: when set, the LP section of a sweep cell raises this
   exception instead of solving — the only way to exercise the graceful-
   degradation path deterministically (real Iteration_limit needs a
   pathological instance far too slow for the suite). *)
let lp_failure_for_tests : exn option ref = ref None

let c_lp_errors = Flowsched_obs.Metrics.counter "sweep.lp_errors"

let run_sweep_cell_timed ~policies s =
  let t0 = Unix.gettimeofday () in
  let inst = sweep_instance s in
  let flows = Instance.n inst in
  let max_makespan = ref 0 in
  let per_policy =
    List.map
      (fun (p : Flowsched_online.Policy.t) ->
        let name = p.Flowsched_online.Policy.name in
        if flows = 0 then { policy = name; art = nan; mrt = 0 }
        else begin
          let r = Engine.run_instance p inst in
          max_makespan := max !max_makespan r.Engine.makespan;
          { policy = name; art = Engine.average_response r; mrt = Engine.max_response r }
        end)
      policies
  in
  let lp_avg, lp_max, lp_counters, lp_error =
    if s.lp && flows > 0 then begin
      (* Counters are global and per-process; each cell brackets its LP
         section with read/diff (NOT reset: a reset would wipe the other
         cells' contribution to the process totals, and with it the
         guarantee that merged --jobs N registry totals equal a --jobs 1
         run).  The per-cell diff rides back through the worker pool with
         the rest of the cell result. *)
      let before = Flowsched_lp.Simplex.read_counters () in
      let diff () =
        Some (Flowsched_lp.Simplex.diff_counters (Flowsched_lp.Simplex.read_counters ()) before)
      in
      (* Graceful degradation: one pathological cell (pivot-budget blowout,
         infeasibility surfacing as Failure) must not abort the whole grid;
         it reports nan bounds plus the error text instead. *)
      try
        (match !lp_failure_for_tests with Some e -> raise e | None -> ());
        let horizon = max (Flowsched_core.Art_lp.default_horizon inst) !max_makespan in
        let bound = Flowsched_core.Art_lp.lower_bound ~horizon inst in
        let rho = Flowsched_core.Mrt_scheduler.min_fractional_rho inst in
        (bound.Flowsched_core.Art_lp.average, float_of_int rho, diff (), None)
      with (Flowsched_lp.Simplex.Iteration_limit _ | Failure _) as e ->
        Flowsched_obs.Metrics.incr c_lp_errors;
        (nan, nan, diff (), Some (Printexc.to_string e))
    end
    else (nan, nan, None, None)
  in
  {
    sweep = s;
    flows;
    per_policy;
    lp_avg;
    lp_max;
    lp_counters;
    lp_error;
    wall_s = Unix.gettimeofday () -. t0;
  }

let describe_sweep s =
  Printf.sprintf "sweep %s m=%d rate=%.1f T=%d seed=%d lp=%b" s.workload s.ports
    s.arrival_rate s.horizon s.sweep_seed s.lp

let run_sweep_cell ~policies s =
  Flowsched_obs.Trace.with_span "sweep.cell"
    ~args:(fun () -> [ ("cell", Json.Str (describe_sweep s)) ])
    (fun () -> run_sweep_cell_timed ~policies s)

let run_sweep ~policies ?(progress = fun _ -> ()) ?backend ?(jobs = 1) ?timeout ?retries
    ?faults ?on_result cells =
  pool_map ?backend ~jobs ?timeout ?retries ?faults ?on_result ~describe:describe_sweep
    ~progress ~f:(run_sweep_cell ~policies) cells

let fig6_grid ?(m = 6) ?(tries = 3) ?(seed = 1) ?(lp_rounds_limit = 12) ~congestion ~rounds () =
  List.concat_map
    (fun c ->
      List.map
        (fun t ->
          {
            m;
            rate = c *. float_of_int m;
            rounds = t;
            tries;
            seed = seed + int_of_float (c *. 1_000_000.) + (17 * t);
            with_lp = t <= lp_rounds_limit;
          })
        rounds)
    congestion
