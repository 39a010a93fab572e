(* Benchmark harness: regenerates every evaluation artifact of the paper
   (Figures 6 and 7), validates the theorem-shaped claims on random
   workloads (Theorem 1, Theorem 3, Lemmas 5.1-5.3 — the "ablations" and
   "adversarial" blocks), and times the core components with Bechamel.

   Usage:
     dune exec bench/main.exe                 # everything, scaled profile
     dune exec bench/main.exe -- figures      # only Figures 6/7
     dune exec bench/main.exe -- figures --paper  # larger grid, with LPs
     dune exec bench/main.exe -- figures --full   # the paper's 150x150 switch,
                                                  # heuristics only
     dune exec bench/main.exe -- figures --json   # also write BENCH_figures.json
     dune exec bench/main.exe -- ablations    # Theorem 1 / Theorem 3 tables
     dune exec bench/main.exe -- adversarial  # Figure 4 + AMRT experiments
     dune exec bench/main.exe -- micro        # Bechamel component timings
     dune exec bench/main.exe -- lp [--json]  # cold vs warm LP pipeline bench
                                              # (writes BENCH_lp.json with --json)
     dune exec bench/main.exe -- serve [--json]  # serve loop: incremental vs
                                              # from-scratch matching, exactness
                                              # gate (writes BENCH_serve.json)
     dune exec bench/main.exe -- exec [--json]  # fork vs inline over
                                              # a sweep grid, byte-agreement
                                              # gate (writes BENCH_exec.json)
     dune exec bench/main.exe -- dist [--json]  # sharded sweep + verifying
                                              # merge vs single box, byte-
                                              # agreement gate (BENCH_dist.json)
     dune exec bench/main.exe -- scenarios [--json]  # zoo x mode matrix across
                                              # backends, byte-agreement gate
                                              # (writes BENCH_scenarios.json)

   All modes but micro accept `--jobs N` (N a positive count or `auto` for
   the detected core count; default auto) and fan their mutually
   independent cells across a Flowsched_exec.Pool of forked workers (the
   exec mode runs the same grid on every backend).  Results are merged in
   job order, so every table is byte-identical to a sequential `--jobs 1`
   run. *)

open Flowsched_switch
open Flowsched_core
open Flowsched_online
open Flowsched_sim
open Flowsched_util
module Pool = Flowsched_exec.Pool

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let elapsed t0 = Unix.gettimeofday () -. t0

(* Fan the independent units of a table across the pool; each worker
   returns fully rendered row strings, merged back in input order. *)
let pool_rows ~jobs f items =
  Pool.map ~jobs ~f (Array.of_list items)
  |> Array.to_list
  |> List.map (function
       | Pool.Done r -> r
       | Pool.Failed { attempts; reason } ->
           failwith (Printf.sprintf "bench job failed after %d attempts: %s" attempts reason))

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7                                                     *)
(* ------------------------------------------------------------------ *)

let figures ~profile ~jobs ?(json = false) () =
  let t0 = Unix.gettimeofday () in
  (* The paper: 150x150 switch, M in {50,100,150,300,600} (congestion M/150
     in {1/3,2/3,1,2,4}), T in {10..20} with LP and up to 100 without, 10
     tries.  Scaled profiles keep the same congestion levels on a smaller
     switch (see DESIGN.md for why ratios and orderings are preserved);
     `--full` runs the paper's actual 150x150 switch, heuristics only (the
     LP at that scale is the paper's own 3-hours-per-run bottleneck). *)
  let m, tries, rounds, lp_rounds_limit =
    match profile with
    | `Default -> (6, 2, [ 6; 8; 10 ], 10)
    | `Paper -> (8, 3, [ 6; 8; 10; 12 ], 10)
    | `Full -> (150, 2, [ 10; 20 ], 0)
  in
  let congestion = [ 1. /. 3.; 2. /. 3.; 1.; 2.; 4. ] in
  let grid =
    Experiment.fig6_grid ~m ~tries ~seed:2020 ~lp_rounds_limit ~congestion ~rounds ()
  in
  section
    (Printf.sprintf
       "Figures 6 and 7 — online heuristics vs LP lower bounds (%dx%d switch, %d tries)" m m
       tries);
  (match profile with
  | `Full ->
      Printf.printf
        "Paper-scale switch (150x150, M in {50,100,150,300,600}); heuristics only —\n\
         the LP bounds at this scale are the paper's own multi-hour bottleneck.\n%!"
  | `Default | `Paper ->
      Printf.printf
        "Scaled reproduction of the paper's 150x150 grid: congestion M/m matches the\n\
         paper's M/150 levels {1/3, 2/3, 1, 2, 4}; LP bounds on cells with T <= %d.\n%!"
        lp_rounds_limit);
  Printf.printf "workers: %d\n%!" jobs;
  let results =
    Experiment.run_grid ~policies:Heuristics.all_paper_heuristics
      ~progress:(fun msg -> Printf.printf "  [%6.1fs] %s\n%!" (elapsed t0) msg)
      ~jobs grid
  in
  section "Figure 6 — average response time (vs LP (1)-(4) lower bound)";
  print_string (Report.fig6_table results);
  section "Figure 7 — maximum response time (vs binary search over LP (19)-(21))";
  print_string (Report.fig7_table results);
  if json then begin
    let path = "BENCH_figures.json" in
    let oc = open_out path in
    output_string oc (Json.to_string (Report.figures_json ~jobs results));
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nwrote %s\n%!" path
  end;
  Printf.printf "\nfigures block finished in %.1fs\n%!" (elapsed t0)

(* ------------------------------------------------------------------ *)
(* Theorem ablations                                                   *)
(* ------------------------------------------------------------------ *)

let theorem1_table ~jobs () =
  section "Theorem 1 ablation — FS-ART approximation vs capacity blow-up c";
  Printf.printf
    "Offline pipeline (LP (5)-(8) + iterative rounding + BvN re-matching) on\n\
     Poisson instances; schedule must be valid under (1+c) capacities and total\n\
     response within (1 + O(log n)/c) of the LP bound.\n\n%!";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("c", Table.Right);
        ("LP bound", Table.Right);
        ("FIFO", Table.Right);
        ("alg total", Table.Right);
        ("alg/LP", Table.Right);
        ("iters", Table.Right);
        ("backlog", Table.Right);
        ("h", Table.Right);
        ("spill", Table.Right);
        ("valid", Table.Right);
      ]
  in
  let rows_for (n, seed) =
    let inst = Workload.uniform_total ~m:4 ~n ~max_release:(n / 4) ~seed in
    let fifo = Baselines.fifo inst in
    let lp_total = ref nan in
    let c_rows =
      List.map
        (fun c ->
          let res = Art_scheduler.solve ~c inst in
          let d = res.Art_scheduler.diagnostics in
          lp_total := res.Art_scheduler.lp_total;
          [
            string_of_int (Instance.n inst);
            string_of_int c;
            Table.cell_float res.Art_scheduler.lp_total;
            string_of_int (Schedule.total_response inst fifo);
            string_of_int res.Art_scheduler.total_response;
            Table.cell_ratio (float_of_int res.Art_scheduler.total_response)
              res.Art_scheduler.lp_total;
            string_of_int d.Art_scheduler.rounding.Iterative_rounding.iterations;
            string_of_int d.Art_scheduler.rounding.Iterative_rounding.backlog;
            string_of_int d.Art_scheduler.h;
            string_of_int d.Art_scheduler.spill_rounds;
            string_of_bool
              (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule);
          ])
        [ 1; 2; 4 ]
    in
    (* ablation: the same conversion without the LP stage *)
    let greedy = Art_scheduler.solve_greedy ~c:1 inst in
    let gd = greedy.Art_scheduler.diagnostics in
    let greedy_row =
      [
        string_of_int (Instance.n inst);
        "1*";
        "-";
        string_of_int (Schedule.total_response inst fifo);
        string_of_int greedy.Art_scheduler.total_response;
        Table.cell_ratio (float_of_int greedy.Art_scheduler.total_response) !lp_total;
        "-";
        string_of_int gd.Art_scheduler.rounding.Iterative_rounding.backlog;
        string_of_int gd.Art_scheduler.h;
        string_of_int gd.Art_scheduler.spill_rounds;
        string_of_bool
          (Schedule.is_valid greedy.Art_scheduler.augmented greedy.Art_scheduler.schedule);
      ]
    in
    c_rows @ [ greedy_row ]
  in
  pool_rows ~jobs rows_for [ (16, 11); (40, 12); (80, 13) ]
  |> List.iter (fun rows ->
         List.iter (Table.add_row t) rows;
         Table.add_separator t);
  Table.print t;
  Printf.printf "\n(rows marked 1*: greedy pseudo-schedule ablation, no LP stage)\n%!"

let theorem3_table ~jobs () =
  section "Theorem 3 ablation — FS-MRT optimal rho under +(2 dmax - 1) capacity";
  Printf.printf
    "Search for the minimum fractional rho, then Lemma 4.3-style rounding;\n\
     overflow must stay within 2 dmax - 1 and the response within rho.\n\n%!";
  let t =
    Table.create
      [
        ("n", Table.Right);
        ("dmax", Table.Right);
        ("rho* (LP)", Table.Right);
        ("rho (alg)", Table.Right);
        ("FIFO rho", Table.Right);
        ("overflow", Table.Right);
        ("bound", Table.Right);
        ("LP solves", Table.Right);
        ("fallbacks", Table.Right);
        ("valid", Table.Right);
      ]
  in
  let row_for (n, max_demand, seed) =
    let inst =
      if max_demand = 1 then Workload.poisson ~m:4 ~rate:2.0 ~rounds:(n / 2) ~seed
      else Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:(n / 2) ~max_demand ~seed
    in
    if Instance.n inst = 0 then None
    else begin
      let sol = Mrt_scheduler.solve inst in
      let fifo = Baselines.fifo inst in
      Some
        [
          string_of_int (Instance.n inst);
          string_of_int (Instance.dmax inst);
          string_of_int sol.Mrt_scheduler.fractional_rho;
          string_of_int sol.Mrt_scheduler.rho;
          string_of_int (Schedule.max_response inst fifo);
          string_of_int sol.Mrt_scheduler.rounding.Mrt_rounding.overflow;
          string_of_int sol.Mrt_scheduler.rounding.Mrt_rounding.bound;
          string_of_int sol.Mrt_scheduler.rounding.Mrt_rounding.lp_solves;
          string_of_int sol.Mrt_scheduler.rounding.Mrt_rounding.fallback_drops;
          string_of_bool
            (Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule);
        ]
    end
  in
  pool_rows ~jobs row_for [ (20, 1, 21); (40, 1, 22); (20, 2, 23); (40, 3, 24); (60, 4, 25) ]
  |> List.iter (Option.iter (Table.add_row t));
  Table.print t

let factor_augmentation_table ~jobs () =
  section "Lemma 3.3 corollary — factor-augmented schedules (general demands)";
  Printf.printf
    "The pseudo-schedule emitted directly, with every capacity scaled by the\n\
     smallest uniform factor that absorbs the backlog (paper: 1 + O(log n)).\n\n%!";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("n", Table.Right);
        ("dmax", Table.Right);
        ("factor", Table.Right);
        ("LP bound", Table.Right);
        ("total resp", Table.Right);
        ("valid", Table.Right);
      ]
  in
  let row_for (label, inst) =
    if Instance.n inst = 0 then None
    else begin
      let res = Art_scheduler.solve_factor_augmented inst in
      Some
        [
          label;
          string_of_int (Instance.n inst);
          string_of_int (Instance.dmax inst);
          string_of_int res.Art_scheduler.factor;
          Table.cell_float res.Art_scheduler.lp_total;
          string_of_int res.Art_scheduler.total_response;
          string_of_bool
            (Schedule.is_valid res.Art_scheduler.augmented res.Art_scheduler.schedule);
        ]
    end
  in
  pool_rows ~jobs row_for
    [
      ("uniform unit, n=40", Workload.uniform_total ~m:4 ~n:40 ~max_release:10 ~seed:51);
      ("uniform unit, n=80", Workload.uniform_total ~m:4 ~n:80 ~max_release:20 ~seed:52);
      ("poisson demands<=3", Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:10 ~max_demand:3 ~seed:53);
      ("poisson demands<=5", Workload.poisson_with_demands ~m:4 ~rate:3.0 ~rounds:10 ~max_demand:5 ~seed:54);
    ]
  |> List.iter (Option.iter (Table.add_row t));
  Table.print t

let open_problem_block ~jobs () =
  section "Open problem (Section 6) — response time of slack-1 request sequences";
  Printf.printf
    "Instances whose per-port release surplus over any interval is at most +1\n\
     (the paper asks whether constant response is achievable without capacity\n\
     augmentation).  Worst values over the generated trials:\n\n%!";
  let t =
    Table.create
      [
        ("m", Table.Right);
        ("rounds", Table.Right);
        ("trials", Table.Right);
        ("flows", Table.Right);
        ("slack", Table.Right);
        ("LP rho", Table.Right);
        ("MinRTime rho", Table.Right);
        ("exact rho", Table.Right);
      ]
  in
  let row_for (m, rounds, trials, seed) =
    let s = Open_problem.study ~seed ~m ~rounds ~trials in
    [
      string_of_int m;
      string_of_int rounds;
      string_of_int s.Open_problem.trials;
      string_of_int s.Open_problem.flows_total;
      string_of_int s.Open_problem.worst_slack;
      string_of_int s.Open_problem.worst_fractional_rho;
      string_of_int s.Open_problem.worst_heuristic;
      (match s.Open_problem.worst_exact with Some k -> string_of_int k | None -> "-");
    ]
  in
  pool_rows ~jobs row_for [ (3, 4, 20, 61); (4, 6, 20, 62); (6, 8, 15, 63); (8, 10, 10, 64) ]
  |> List.iter (Table.add_row t);
  Table.print t;
  Printf.printf
    "\nEmpirical reading: the worst response stays a small constant as the size\n\
     grows — evidence FOR the paper's constant-response conjecture.\n%!"

let skew_block ~jobs () =
  section "Beyond the paper — heuristics under skewed (Zipf/hotspot) traffic";
  Printf.printf
    "The paper's experiments use uniform port selection; its future-work section\n\
     asks about distributional inputs.  Same rate, three endpoint distributions:\n\n%!";
  let t =
    Table.create
      [
        ("workload", Table.Left);
        ("flows", Table.Right);
        ("policy", Table.Left);
        ("avg resp", Table.Right);
        ("max resp", Table.Right);
      ]
  in
  let m = 6 in
  let rows_for (label, inst) =
    List.map
      (fun (p : Policy.t) ->
        let r = Engine.run_instance p inst in
        [
          label;
          string_of_int (Instance.n inst);
          p.Policy.name;
          Table.cell_float (Engine.average_response r);
          string_of_int (Engine.max_response r);
        ])
      Heuristics.all_paper_heuristics
  in
  pool_rows ~jobs rows_for
    [
      ("uniform", Workload.poisson ~m ~rate:4.0 ~rounds:10 ~seed:71);
      ("zipf(1.0)", Workload.skewed ~m ~rate:4.0 ~rounds:10 ~alpha:1.0 ~seed:71 ());
      ("hotspot(50%)", Workload.hotspot ~m ~rate:4.0 ~rounds:10 ~fraction:0.5 ~seed:71 ());
    ]
  |> List.iter (fun rows ->
         List.iter (Table.add_row t) rows;
         Table.add_separator t);
  Table.print t

let coflow_block ~jobs () =
  section "Beyond the paper — co-flow scheduling (SEBF vs group-blind FIFO)";
  Printf.printf
    "Co-flows are the paper's named future-work generalization: a job completes\n\
     when its last flow does.  SEBF orders co-flows by effective bottleneck.\n\n%!";
  let t =
    Table.create
      [
        ("flows", Table.Right);
        ("coflows", Table.Right);
        ("SEBF avg", Table.Right);
        ("FIFO avg", Table.Right);
        ("SEBF/FIFO", Table.Right);
        ("SEBF max", Table.Right);
        ("FIFO max", Table.Right);
      ]
  in
  let row_for (n, groups, seed) =
    let inst = Workload.uniform_total ~m:4 ~n ~max_release:(n / 6) ~seed in
    let cf = Coflow.random_grouping ~seed:(seed + 1) ~groups inst in
    let sebf = Coflow.sebf cf in
    let fifo = Coflow.flow_fifo cf in
    [
      string_of_int n;
      string_of_int groups;
      Table.cell_float (Coflow.average_response cf sebf);
      Table.cell_float (Coflow.average_response cf fifo);
      Table.cell_ratio (Coflow.average_response cf sebf) (Coflow.average_response cf fifo);
      string_of_int (Coflow.max_response cf sebf);
      string_of_int (Coflow.max_response cf fifo);
    ]
  in
  pool_rows ~jobs row_for [ (24, 4, 81); (48, 6, 82); (96, 8, 83); (96, 24, 84) ]
  |> List.iter (Table.add_row t);
  Table.print t

let ablations ~jobs () =
  theorem1_table ~jobs ();
  theorem3_table ~jobs ();
  factor_augmentation_table ~jobs ();
  open_problem_block ~jobs ();
  skew_block ~jobs ();
  coflow_block ~jobs ()

(* ------------------------------------------------------------------ *)
(* Adversarial / online-theory experiments                             *)
(* ------------------------------------------------------------------ *)

let fig4a_block ~jobs () =
  section "Lemma 5.1 / Figure 4(a) — online avg response is unboundedly worse";
  Printf.printf
    "Adaptive adversary: solid flows for T rounds, then dashed flows aimed at the\n\
     busier output.  The online/LP ratio grows with the number of dashed rounds M.\n\n%!";
  let t =
    Table.create
      [
        ("T", Table.Right);
        ("M", Table.Right);
        ("policy", Table.Left);
        ("online avg", Table.Right);
        ("LP avg", Table.Right);
        ("ratio", Table.Right);
      ]
  in
  let rows_for (tt, total) =
    List.map
      (fun (p : Policy.t) ->
        let arrivals ~round ~pending =
          if round < tt then [ (0, 0, 1); (0, 1, 1) ]
          else begin
            let count d =
              List.length (List.filter (fun (f : Flow.t) -> f.Flow.dst = d) pending)
            in
            [
              ( 1,
                Lower_bounds.fig4a_dashed_target ~pending_out0:(count 0)
                  ~pending_out1:(count 1),
                1 );
            ]
          end
        in
        let r = Engine.run_adaptive ~m:2 ~m':2 ~arrivals ~stop_arrivals_after:total p in
        let inst = Instance.create ~m:2 ~m':2 r.Engine.flows in
        let horizon = max (Art_lp.default_horizon inst) r.Engine.makespan in
        let bound = Art_lp.lower_bound ~horizon inst in
        [
          string_of_int tt;
          string_of_int total;
          p.Policy.name;
          Table.cell_float (Engine.average_response r);
          Table.cell_float bound.Art_lp.average;
          Table.cell_ratio (Engine.average_response r) bound.Art_lp.average;
        ])
      [ Heuristics.maxcard; Heuristics.maxweight; Heuristics.fifo ]
  in
  pool_rows ~jobs rows_for [ (4, 16); (6, 36); (8, 64) ]
  |> List.iter (fun rows ->
         List.iter (Table.add_row t) rows;
         Table.add_separator t);
  Table.print t

let fig4b_block ~jobs () =
  section "Lemma 5.2 / Figure 4(b) — online max response >= 3/2 x offline";
  Printf.printf "Offline optimum is %d; the adaptive adversary forces every policy to 3.\n\n%!"
    Lower_bounds.fig4b_optimum;
  let t =
    Table.create
      [ ("policy", Table.Left); ("online max", Table.Right); ("offline opt", Table.Right) ]
  in
  let adversary ~round ~pending =
    if round = 0 then [ (0, 1, 1); (0, 0, 1); (1, 2, 1); (1, 3, 1) ]
    else if round = 1 then
      Lower_bounds.fig4b_dashed
        ~remaining_solid_outputs:(List.map (fun (f : Flow.t) -> f.Flow.dst) pending)
    else []
  in
  let row_for (p : Policy.t) =
    let r = Engine.run_adaptive ~m:3 ~m':4 ~arrivals:adversary ~stop_arrivals_after:2 p in
    [
      p.Policy.name;
      string_of_int (Engine.max_response r);
      string_of_int Lower_bounds.fig4b_optimum;
    ]
  in
  pool_rows ~jobs row_for (Heuristics.all_paper_heuristics @ [ Heuristics.fifo ])
  |> List.iter (Table.add_row t);
  Table.print t

let amrt_block ~jobs () =
  section "Lemma 5.3 — AMRT online batching vs the fractional optimum";
  Printf.printf
    "AMRT runs with capacities 2(c_p + 2 dmax - 1); its max response should stay\n\
     within 2x its final guess, which converges near the offline optimum.\n\n%!";
  let t =
    Table.create
      [
        ("m", Table.Right);
        ("flows", Table.Right);
        ("rho* (LP)", Table.Right);
        ("AMRT max", Table.Right);
        ("final guess", Table.Right);
        ("max <= 2*guess", Table.Right);
      ]
  in
  let row_for (m, rate, rounds, seed) =
    let inst = Workload.poisson ~m ~rate ~rounds ~seed in
    if Instance.n inst = 0 then None
    else begin
      let cap_in, cap_out =
        Amrt.required_capacities ~cap_in:inst.Instance.cap_in
          ~cap_out:inst.Instance.cap_out ~dmax:1
      in
      let amrt =
        Amrt.make ~planning_cap_in:inst.Instance.cap_in
          ~planning_cap_out:inst.Instance.cap_out ()
      in
      let augmented = Instance.create ~cap_in ~cap_out ~m ~m':m inst.Instance.flows in
      let r = Engine.run_instance amrt augmented in
      let frac = Mrt_scheduler.min_fractional_rho inst in
      let guess = match Amrt.current_rho amrt with Some k -> k | None -> 0 in
      Some
        [
          string_of_int m;
          string_of_int (Instance.n inst);
          string_of_int frac;
          string_of_int (Engine.max_response r);
          string_of_int guess;
          string_of_bool (Engine.max_response r <= 2 * guess);
        ]
    end
  in
  pool_rows ~jobs row_for [ (4, 2.0, 8, 31); (6, 4.0, 10, 32); (6, 12.0, 8, 33) ]
  |> List.iter (Option.iter (Table.add_row t));
  Table.print t

let adversarial ~jobs () =
  fig4a_block ~jobs ();
  fig4b_block ~jobs ();
  amrt_block ~jobs ()

(* ------------------------------------------------------------------ *)
(* LP warm-start micro-bench (cold vs warm pipelines)                  *)
(* ------------------------------------------------------------------ *)

module Simplex = Flowsched_lp.Simplex

type lp_side = {
  pivots : int;
  ftran : int;
  refactorizations : int;
  warm_accepted : int;
  warm_attempts : int;
  phase1_skipped : int;
  basis_nnz : int;
  factor_nnz : int;
  eta_nnz : int;
  bound_flips : int;
  wall_s : float;
  art_objective : float;
  art_schedule : int list;
  rho : int;
}

let fill_ratio ~basis_nnz ~factor_nnz =
  if basis_nnz > 0 then float_of_int factor_nnz /. float_of_int basis_nnz else 0.

(* Run the two warmable pipelines — full iterative rounding and the full
   rho search — with warm starts on or off, under counter and
   wall-clock measurement. *)
let lp_run_side ~warm inst =
  Simplex.reset_counters ();
  let t0 = Unix.gettimeofday () in
  let schedule, diag = Iterative_rounding.run ~warm_start:warm inst in
  let rho = Mrt_scheduler.min_fractional_rho ~warm_start:warm inst in
  let wall_s = Unix.gettimeofday () -. t0 in
  let c = Simplex.read_counters () in
  {
    pivots = c.Simplex.pivots;
    ftran = c.Simplex.ftran_calls;
    refactorizations = c.Simplex.refactorizations;
    warm_accepted = c.Simplex.warm_accepted;
    warm_attempts = c.Simplex.warm_attempts;
    phase1_skipped = c.Simplex.phase1_skipped;
    basis_nnz = c.Simplex.basis_nnz;
    factor_nnz = c.Simplex.factor_nnz;
    eta_nnz = c.Simplex.eta_nnz;
    bound_flips = c.Simplex.bound_flips;
    wall_s;
    art_objective = diag.Iterative_rounding.lp_objective;
    art_schedule =
      List.init (Instance.n inst) (fun e -> Schedule.round_of schedule e);
    rho;
  }

let lp_side_json s =
  Json.Obj
    [
      ("pivots", Json.Int s.pivots);
      ("ftran_calls", Json.Int s.ftran);
      ("refactorizations", Json.Int s.refactorizations);
      ("warm_accepted", Json.Int s.warm_accepted);
      ("warm_attempts", Json.Int s.warm_attempts);
      ("phase1_skipped", Json.Int s.phase1_skipped);
      ("basis_nnz", Json.Int s.basis_nnz);
      ("factor_nnz", Json.Int s.factor_nnz);
      ("eta_nnz", Json.Int s.eta_nnz);
      ("bound_flips", Json.Int s.bound_flips);
      ( "fill_ratio",
        Json.float (fill_ratio ~basis_nnz:s.basis_nnz ~factor_nnz:s.factor_nnz) );
      ("wall_s", Json.float s.wall_s);
      ("art_objective", Json.float s.art_objective);
      ("rho", Json.Int s.rho);
    ]

(* Large-instance tier: a single ART round-LP solved cold, then re-solved
   warm from its own optimal basis.  These instances are 4-20x the flow
   count of the pipeline cells above — the regime the sparse engine exists
   for — so the artifact records the sparsity counters (basis/factor/eta
   nnz, LU fill-in) alongside wall clock.  The gate is exactness: the warm
   re-solve must reproduce the cold objective to 1e-6. *)
let lp_large_run ?(explicit_ub_rows = false) ~label ~n () =
  let inst = Workload.uniform_total ~m:4 ~n ~max_release:8 ~seed:77 in
  let built = Art_lp.build_round_lp ~explicit_ub_rows inst in
  let model = built.Art_lp.model in
  Simplex.reset_counters ();
  let t0 = Unix.gettimeofday () in
  let cold = Simplex.solve_or_fail model in
  let cold_s = Unix.gettimeofday () -. t0 in
  let c = Simplex.read_counters () in
  let t1 = Unix.gettimeofday () in
  let warm = Simplex.solve_or_fail ~warm:(Array.to_list cold.Simplex.basis) model in
  let warm_s = Unix.gettimeofday () -. t1 in
  let agree = abs_float (cold.Simplex.objective -. warm.Simplex.objective) <= 1e-6 in
  let fill = fill_ratio ~basis_nnz:c.Simplex.basis_nnz ~factor_nnz:c.Simplex.factor_nnz in
  ( Json.Obj
      [
        ("cell", Json.Str label);
        ("flows", Json.Int n);
        ("lp_rows", Json.Int (Flowsched_lp.Model.num_rows model));
        ("lp_cols", Json.Int (Flowsched_lp.Model.num_vars model));
        ("cold_pivots", Json.Int cold.Simplex.iterations);
        ("warm_pivots", Json.Int warm.Simplex.iterations);
        ("objective", Json.float cold.Simplex.objective);
        ("refactorizations", Json.Int c.Simplex.refactorizations);
        ("basis_nnz", Json.Int c.Simplex.basis_nnz);
        ("factor_nnz", Json.Int c.Simplex.factor_nnz);
        ("eta_nnz", Json.Int c.Simplex.eta_nnz);
        ("bound_flips", Json.Int c.Simplex.bound_flips);
        ("fill_ratio", Json.float fill);
        ("cold_wall_s", Json.float cold_s);
        ("warm_wall_s", Json.float warm_s);
        ("agree", Json.Bool agree);
      ],
    (label, n, Flowsched_lp.Model.num_rows model, cold, warm, c, fill, cold_s, warm_s, agree) )

let lp_bench ?(json = false) ?(smoke = false) () =
  section "LP warm-start bench — cold vs warm simplex across the offline pipelines";
  Printf.printf
    "Each cell runs full iterative rounding (LP (5)-(8)) and the full rho\n\
     search (LP (19)-(21)) twice: cold (every solve from the all-slack basis) and\n\
     warm (basis threaded across rounds/probes).  Outputs must agree exactly;\n\
     pivot counts are the speedup evidence.\n\n%!";
  let cells =
    [
      (* The bench-smoke sweep cell (Makefile bench-smoke). *)
      ("poisson m=4 rate=2 T=4 s=1", Workload.poisson ~m:4 ~rate:2.0 ~rounds:4 ~seed:1);
      ("poisson m=4 rate=2 T=4 s=2", Workload.poisson ~m:4 ~rate:2.0 ~rounds:4 ~seed:2);
      ("poisson m=6 rate=4 T=6 s=3", Workload.poisson ~m:6 ~rate:4.0 ~rounds:6 ~seed:3);
      ("uniform m=4 n=24", Workload.uniform_total ~m:4 ~n:24 ~max_release:6 ~seed:41);
      ("uniform m=3 n=60", Workload.uniform_total ~m:3 ~n:60 ~max_release:8 ~seed:1);
      ("skewed m=5 rate=2 T=6", Workload.skewed ~m:5 ~rate:2.0 ~rounds:6 ~seed:7 ());
    ]
  in
  let t =
    Table.create
      [
        ("cell", Table.Left);
        ("flows", Table.Right);
        ("cold piv", Table.Right);
        ("warm piv", Table.Right);
        ("reduction", Table.Right);
        ("warm acc", Table.Right);
        ("p1 skip", Table.Right);
        ("cold s", Table.Right);
        ("warm s", Table.Right);
        ("agree", Table.Right);
      ]
  in
  let mismatches = ref 0 in
  let total_cold = ref 0 and total_warm = ref 0 in
  let cell_rows =
    List.filter_map
      (fun (label, inst) ->
        if Instance.n inst = 0 then None
        else begin
          let cold = lp_run_side ~warm:false inst in
          let warm = lp_run_side ~warm:true inst in
          (* CI gate: a warm-started pipeline must reproduce the cold one —
             same LP(0) objective (1e-6), same schedule, same rho. *)
          let agree =
            abs_float (cold.art_objective -. warm.art_objective) <= 1e-6
            && cold.art_schedule = warm.art_schedule
            && cold.rho = warm.rho
          in
          if not agree then incr mismatches;
          total_cold := !total_cold + cold.pivots;
          total_warm := !total_warm + warm.pivots;
          let reduction =
            100. *. (1. -. (float_of_int warm.pivots /. float_of_int (max 1 cold.pivots)))
          in
          Table.add_row t
            [
              label;
              string_of_int (Instance.n inst);
              string_of_int cold.pivots;
              string_of_int warm.pivots;
              Printf.sprintf "%.0f%%" reduction;
              Printf.sprintf "%d/%d" warm.warm_accepted warm.warm_attempts;
              string_of_int warm.phase1_skipped;
              Table.cell_float ~decimals:3 cold.wall_s;
              Table.cell_float ~decimals:3 warm.wall_s;
              string_of_bool agree;
            ];
          Some
            (Json.Obj
               [
                 ("cell", Json.Str label);
                 ("flows", Json.Int (Instance.n inst));
                 ("cold", lp_side_json cold);
                 ("warm", lp_side_json warm);
                 ("pivot_reduction_pct", Json.float reduction);
                 ("agree", Json.Bool agree);
               ])
        end)
      cells
  in
  Table.print t;
  (* Same-model re-solve: warm-starting an LP with its own optimal basis
     must confirm optimality with no pivots at all. *)
  let built = Art_lp.build_round_lp (Workload.uniform_total ~m:4 ~n:24 ~max_release:6 ~seed:41) in
  let first = Simplex.solve_or_fail built.Art_lp.model in
  let again =
    Simplex.solve_or_fail ~warm:(Array.to_list first.Simplex.basis) built.Art_lp.model
  in
  let resolve_agree =
    abs_float (first.Simplex.objective -. again.Simplex.objective) <= 1e-6
  in
  if not resolve_agree then incr mismatches;
  Printf.printf
    "\nsame-model re-solve with own basis: %d -> %d pivots (objective agree: %b)\n"
    first.Simplex.iterations again.Simplex.iterations resolve_agree;
  let overall =
    100. *. (1. -. (float_of_int !total_warm /. float_of_int (max 1 !total_cold)))
  in
  Printf.printf "overall pivots: %d cold -> %d warm (%.0f%% reduction)\n%!" !total_cold
    !total_warm overall;
  (* ---- large-instance tier ---- *)
  section "LP large-instance tier — single ART round-LP, sparse-engine regime";
  let large_specs =
    (* Smoke form (what `make bench-lp` runs) keeps the two sizes that fit a
       CI budget; the full form adds a 20x cell for manual perf work. *)
    if smoke then [ ("uniform m=4 n=240", 240); ("uniform m=4 n=600", 600) ]
    else [ ("uniform m=4 n=240", 240); ("uniform m=4 n=600", 600); ("uniform m=4 n=1200", 1200) ]
  in
  let lt =
    Table.create
      [
        ("cell", Table.Left);
        ("rows", Table.Right);
        ("cold piv", Table.Right);
        ("warm piv", Table.Right);
        ("fill", Table.Right);
        ("eta nnz", Table.Right);
        ("flips", Table.Right);
        ("cold s", Table.Right);
        ("warm s", Table.Right);
        ("agree", Table.Right);
      ]
  in
  let large_rows =
    List.map
      (fun (label, n) ->
        let cell, (_, _, rows, cold, warm, c, fill, cold_s, warm_s, agree) =
          lp_large_run ~label ~n ()
        in
        if not agree then incr mismatches;
        Table.add_row lt
          [
            label;
            string_of_int rows;
            string_of_int cold.Simplex.iterations;
            string_of_int warm.Simplex.iterations;
            Printf.sprintf "%.2f" fill;
            string_of_int c.Simplex.eta_nnz;
            string_of_int c.Simplex.bound_flips;
            Table.cell_float ~decimals:3 cold_s;
            Table.cell_float ~decimals:3 warm_s;
            string_of_bool agree;
          ];
        cell)
      large_specs
  in
  Table.print lt;
  if json then begin
    let artifact =
      Json.Obj
        [
          ("schema", Json.Str "flowsched-bench-lp/2");
          ("cells", Json.Arr cell_rows);
          ("large_cells", Json.Arr large_rows);
          ("total_cold_pivots", Json.Int !total_cold);
          ("total_warm_pivots", Json.Int !total_warm);
          ("overall_pivot_reduction_pct", Json.float overall);
          ( "resolve_check",
            Json.Obj
              [
                ("cold_pivots", Json.Int first.Simplex.iterations);
                ("warm_pivots", Json.Int again.Simplex.iterations);
                ("agree", Json.Bool resolve_agree);
              ] );
          ("mismatches", Json.Int !mismatches);
        ]
    in
    let path = "BENCH_lp.json" in
    let oc = open_out path in
    output_string oc (Json.to_string artifact);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end;
  if !mismatches > 0 then begin
    Printf.eprintf "FAIL: %d warm/cold disagreement(s) beyond 1e-6\n%!" !mismatches;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serve bench: incremental matching core vs from-scratch MaxCard      *)
(* ------------------------------------------------------------------ *)

module Serve = Flowsched_serve.Server
module Bmatching = Flowsched_bipartite.Bmatching

let serve_side ~core ~kind ~m ~rate ~slots ~seed =
  let stream = Workload.stream kind ~m ~rate ~seed in
  let source = Flowsched_serve.Source.of_stream stream ~horizon:slots in
  let config = Serve.config ~m ~m':m ~idle_limit:1_000_000 () in
  let before = Flowsched_obs.Metrics.snapshot () in
  let t0 = Unix.gettimeofday () in
  let outcome = Serve.run config core source in
  let wall = elapsed t0 in
  let delta = Flowsched_obs.Metrics.diff (Flowsched_obs.Metrics.snapshot ()) before in
  (outcome, wall, delta)

(* Latency quantile from a snapshot diff, so each run reads only its own
   observations out of the process-wide registry histogram. *)
let snap_quantile delta name q =
  match List.assoc_opt name delta with
  | Some (Flowsched_obs.Metrics.Histogram { buckets; count; _ }) when count > 0 ->
      let target = max 1 (int_of_float (ceil (q *. float_of_int count))) in
      let rec go acc = function
        | [] -> nan
        | (i, n) :: rest ->
            let acc = acc + n in
            if acc >= target then Flowsched_obs.Metrics.bucket_upper_bound i else go acc rest
      in
      go 0 buckets
  | _ -> nan

(* Exactness gate: drive the incremental structure slot by slot and check
   its cardinality against a fresh Hopcroft-Karp on the same pending set
   every slot.  Unit capacities, where the per-flow reduction is exact. *)
let serve_gate ~kind ~m ~rate ~slots ~seed =
  let stream = Workload.stream kind ~m ~rate ~seed in
  let inc =
    Bmatching.incremental ~nl:m ~nr:m ~cap_in:(Array.make m 1) ~cap_out:(Array.make m 1)
  in
  let live = Hashtbl.create 1024 in
  let next_id = ref 0 in
  let checks = ref 0 and mismatches = ref 0 in
  let exhausted = ref false in
  while (not !exhausted) || Bmatching.Incremental.pending inc > 0 do
    if Workload.stream_slot stream >= slots then exhausted := true
    else
      List.iter
        (fun (src, dst, _demand) ->
          let id = !next_id in
          incr next_id;
          Bmatching.Incremental.add inc ~id ~src ~dst;
          Hashtbl.add live id (src, dst))
        (Workload.stream_next stream);
    let pending = List.sort compare (Hashtbl.fold (fun id sd acc -> (id, sd) :: acc) live []) in
    let scratch =
      match pending with
      | [] -> 0
      | _ ->
          let edges = Array.of_list (List.map snd pending) in
          Flowsched_bipartite.Matching.max_cardinality_size
            (Flowsched_bipartite.Bgraph.create ~nl:m ~nr:m edges)
    in
    incr checks;
    if Bmatching.Incremental.cardinality inc <> scratch then incr mismatches;
    List.iter (fun id -> Hashtbl.remove live id) (Bmatching.Incremental.take_matched inc)
  done;
  (!checks, !mismatches)

let serve_bench ?(json = false) () =
  section "Serve bench — incremental per-slot matching vs from-scratch MaxCard";
  Printf.printf
    "Both sides replay the same seeded arrival stream through the serve loop; the\n\
     from-scratch side re-runs Hopcroft-Karp on the whole queue every slot, the\n\
     incremental side re-augments only around churn.  The hotspot cell builds a\n\
     deep backlog, where per-slot cost proportional to queue depth hurts most.\n\n%!";
  let cells =
    [
      ("uniform m=8 rate=6 T=30k", Workload.Uniform, 8, 6.0, 30_000, 11);
      ("uniform m=16 rate=14 T=20k", Workload.Uniform, 16, 14.0, 20_000, 12);
      ("hotspot m=8 rate=3 f=.5 T=6k", Workload.Hotspot 0.5, 8, 3.0, 6_000, 13);
    ]
  in
  let t =
    Table.create
      [
        ("cell", Table.Left);
        ("flows", Table.Right);
        ("slots", Table.Right);
        ("incr kfl/s", Table.Right);
        ("incr p99 us", Table.Right);
        ("scratch kfl/s", Table.Right);
        ("scratch p99 us", Table.Right);
        ("speedup", Table.Right);
        ("agree", Table.Right);
      ]
  in
  let disagreements = ref 0 in
  let side_json o wall delta =
    let q p = snap_quantile delta "serve.slot_decision_seconds" p in
    Json.Obj
      [
        ("wall_s", Json.float wall);
        ("flows_per_sec", Json.float (float_of_int o.Serve.completed /. wall));
        ("p50_latency_s", Json.float (q 0.5));
        ("p99_latency_s", Json.float (q 0.99));
        ("slots", Json.Int o.Serve.slots);
        ("completed", Json.Int o.Serve.completed);
        ("mean_response", Json.float (Serve.mean_response o));
        ("max_response", Json.Int o.Serve.max_response);
        ("peak_pending", Json.Int o.Serve.peak_pending);
      ]
  in
  let cell_rows =
    List.map
      (fun (label, kind, m, rate, slots, seed) ->
        let oi, wi, di = serve_side ~core:Serve.Incremental ~kind ~m ~rate ~slots ~seed in
        let os, ws, ds =
          serve_side ~core:(Serve.Policy Heuristics.maxcard) ~kind ~m ~rate ~slots ~seed
        in
        (* Both cores drain the same arrivals; everything completing is the
           cross-core sanity gate (schedule orders legitimately differ). *)
        let agree =
          oi.Serve.arrived = os.Serve.arrived
          && oi.Serve.completed = os.Serve.completed
          && oi.Serve.completed = oi.Serve.arrived
        in
        if not agree then incr disagreements;
        let kfps o w = float_of_int o.Serve.completed /. w /. 1000. in
        let p99 delta = snap_quantile delta "serve.slot_decision_seconds" 0.99 *. 1e6 in
        Table.add_row t
          [
            label;
            string_of_int oi.Serve.completed;
            string_of_int oi.Serve.slots;
            Table.cell_float ~decimals:0 (kfps oi wi);
            Table.cell_float ~decimals:1 (p99 di);
            Table.cell_float ~decimals:0 (kfps os ws);
            Table.cell_float ~decimals:1 (p99 ds);
            Printf.sprintf "%.1fx" (ws /. wi);
            string_of_bool agree;
          ];
        Json.Obj
          [
            ("cell", Json.Str label);
            ("incremental", side_json oi wi di);
            ("scratch", side_json os ws ds);
            ("speedup", Json.float (ws /. wi));
            ("agree", Json.Bool agree);
          ])
      cells
  in
  Table.print t;
  let gates =
    [
      ("uniform m=6 rate=4 T=2000", Workload.Uniform, 6, 4.0, 2_000, 5);
      ("hotspot m=8 rate=2 f=.3 T=1500", Workload.Hotspot 0.3, 8, 2.0, 1_500, 6);
    ]
  in
  let gate_rows =
    List.map
      (fun (label, kind, m, rate, slots, seed) ->
        let checks, mismatches = serve_gate ~kind ~m ~rate ~slots ~seed in
        Printf.printf "exactness gate [%s]: %d/%d slots match from-scratch HK\n%!" label
          (checks - mismatches) checks;
        if mismatches > 0 then incr disagreements;
        Json.Obj
          [
            ("gate", Json.Str label);
            ("checks", Json.Int checks);
            ("mismatches", Json.Int mismatches);
          ])
      gates
  in
  if json then begin
    let artifact =
      Json.Obj
        [
          ("schema", Json.Str "flowsched-bench-serve/1");
          ("cells", Json.Arr cell_rows);
          ("gates", Json.Arr gate_rows);
          ("disagreements", Json.Int !disagreements);
        ]
    in
    let path = "BENCH_serve.json" in
    let oc = open_out path in
    output_string oc (Json.to_string artifact);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end;
  if !disagreements > 0 then begin
    Printf.eprintf "FAIL: %d serve exactness/agreement failure(s)\n%!" !disagreements;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Executor bench: fork vs inline                                     *)
(* ------------------------------------------------------------------ *)

module Backend = Flowsched_domains.Backend

(* Timing fields are the only nondeterminism in a sweep artifact; dropping
   their lines (same idiom as the Makefile's CHAOS_FILTER) leaves the
   byte-comparable core. *)
let strip_timing_lines s =
  let keep line =
    let has sub =
      let n = String.length line and k = String.length sub in
      let rec go i = i + k <= n && (String.sub line i k = sub || go (i + 1)) in
      go 0
    in
    not (has "wall_clock_s" || has "phase1_seconds" || has "phase2_seconds")
  in
  String.concat "\n" (List.filter keep (String.split_on_char '\n' s))

(* Runs the grid under every backend (inline first: the reference), prints
   the timing table, and returns one JSON row per backend plus the number
   of backends whose artifact differs from inline's. *)
let compare_backends ~jobs ~ncells ~run ~artifact =
  let sides =
    List.map
      (fun backend ->
        let t0 = Unix.gettimeofday () in
        let results = run backend in
        let wall = elapsed t0 in
        (backend, wall, artifact results))
      Backend.all
  in
  let reference = match sides with (_, _, a) :: _ -> a | [] -> assert false in
  let t =
    Table.create
      [
        ("backend", Table.Left);
        ("cells", Table.Right);
        ("jobs", Table.Right);
        ("wall s", Table.Right);
        ("cells/s", Table.Right);
        ("artifact agree", Table.Right);
      ]
  in
  let disagreements = ref 0 in
  let rows =
    List.map
      (fun (backend, wall, a) ->
        let agree = a = reference in
        if not agree then incr disagreements;
        Table.add_row t
          [
            Backend.to_string backend;
            string_of_int ncells;
            string_of_int (match backend with Backend.Inline -> 1 | Backend.Fork -> jobs);
            Table.cell_float ~decimals:3 wall;
            Table.cell_float ~decimals:1 (float_of_int ncells /. wall);
            string_of_bool agree;
          ];
        Json.Obj
          [
            ("backend", Json.Str (Backend.to_string backend));
            ("wall_s", Json.float wall);
            ("cells_per_sec", Json.float (float_of_int ncells /. wall));
            ("artifact_agree", Json.Bool agree);
          ])
      sides
  in
  Table.print t;
  (rows, !disagreements)

let exec_bench ?(json = false) ~jobs () =
  section "Executor bench — sweep grid under the fork and inline backends";
  Printf.printf
    "The same LP-enabled sweep grid runs through both executors; after\n\
     dropping wall-clock lines the two artifacts must be byte-identical\n\
     (the backends may only differ in speed, never in results).\n\n%!";
  let policies = Heuristics.all_paper_heuristics in
  let cells =
    List.concat_map
      (fun sweep_seed ->
        List.map
          (fun (arrival_rate, horizon) ->
            {
              Experiment.workload = "poisson";
              ports = 5;
              arrival_rate;
              horizon;
              max_demand = 3;
              sweep_seed;
              lp = true;
            })
          (* Enough work per backend (~0.1s inline) that forking the
             workers amortizes away and the throughput comparison is not
             dominated by noise. *)
          [ (2.0, 8); (3.0, 9); (4.0, 7) ])
      [ 1; 2; 3; 4 ]
  in
  let ncells = List.length cells in
  let backend_rows, disagreements =
    compare_backends ~jobs ~ncells
      ~run:(fun backend -> Experiment.run_sweep ~policies ~backend ~jobs cells)
      ~artifact:(fun results ->
        strip_timing_lines (Json.to_string (Report.sweep_json ~jobs results)))
  in
  Printf.printf "\n(detected cores: %d — speedups are only meaningful above 1)\n%!"
    (Pool.default_jobs ());
  if json then begin
    let artifact =
      Json.Obj
        [
          ("schema", Json.Str "flowsched-bench-exec/3");
          ("jobs", Json.Int jobs);
          ("cores", Json.Int (Pool.default_jobs ()));
          ("sweep_cells", Json.Int ncells);
          ("backends", Json.Arr backend_rows);
          ("disagreements", Json.Int disagreements);
        ]
    in
    let path = "BENCH_exec.json" in
    let oc = open_out path in
    output_string oc (Json.to_string artifact);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end;
  if disagreements > 0 then begin
    Printf.eprintf "FAIL: %d backend disagreement(s)\n%!" disagreements;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Distributed sweep bench                                             *)
(* ------------------------------------------------------------------ *)

let dist_bench ?(json = false) ~jobs () =
  section "Distributed sweep — shard workers, checkpoints, verifying merge";
  Printf.printf
    "The same LP-enabled sweep grid runs unsharded and split over 2 / 4 / 8\n\
     shard workers (each filling its CRC-sealed checkpoint, then a verifying\n\
     merge).  After dropping wall-clock lines the merged artifact must be\n\
     byte-identical to the single-box run; the table shows what the shard +\n\
     merge machinery costs on top of the raw sweep.\n\n%!";
  let module Shard = Flowsched_dist.Shard in
  let module Merge = Flowsched_dist.Merge in
  let module Checkpoint = Flowsched_sim.Checkpoint in
  let policies = Heuristics.all_paper_heuristics in
  let policy_names = List.map (fun (p : Policy.t) -> p.name) policies in
  let cells =
    List.concat_map
      (fun sweep_seed ->
        List.map
          (fun (arrival_rate, horizon) ->
            {
              Experiment.workload = "poisson";
              ports = 5;
              arrival_rate;
              horizon;
              max_demand = 3;
              sweep_seed;
              lp = true;
            })
          [ (2.0, 8); (3.0, 9); (4.0, 7) ])
      [ 1; 2; 3; 4 ]
  in
  let ncells = List.length cells in
  let all_keys = List.map Checkpoint.sweep_key cells in
  let with_temp_dir f =
    let dir = Filename.temp_file "flowsched_bench_dist" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f dir)
  in
  let disagreements = ref 0 in
  let t0 = Unix.gettimeofday () in
  let reference_results = Experiment.run_sweep ~policies ~jobs cells in
  let single_box_s = elapsed t0 in
  let reference =
    strip_timing_lines (Json.to_string (Report.sweep_json ~jobs:1 reference_results))
  in
  let t =
    Table.create
      [
        ("shards", Table.Right);
        ("cells", Table.Right);
        ("shard wall s", Table.Right);
        ("merge wall s", Table.Right);
        ("overhead", Table.Right);
        ("artifact agree", Table.Right);
      ]
  in
  let shard_rows =
    List.map
      (fun shards ->
        with_temp_dir @@ fun dir ->
        (* The workers run back-to-back in this process: the bench measures
           the machinery (planning, manifests, sealed appends, merge
           validation), not multi-box wall clock. *)
        let t0 = Unix.gettimeofday () in
        for index = 0 to shards - 1 do
          let mine = Shard.plan ~shards ~index cells in
          ignore
            (Shard.write_manifest ~dir
               (Shard.make ~kind:"sweep" ~shards ~index ~policies:policy_names all_keys));
          let path = Filename.concat dir (Shard.checkpoint_name ~shards ~index) in
          let ck = Checkpoint.open_ ~path ~resume:true in
          ignore (Checkpoint.run_sweep ~policies ~jobs ck mine);
          Checkpoint.close ck
        done;
        let shard_s = elapsed t0 in
        let t1 = Unix.gettimeofday () in
        let merged =
          match Merge.sweep ~dir ~policies:policy_names cells with
          | Error e -> failwith (Printf.sprintf "bench merge (%d shards): %s" shards e)
          | Ok (results, report) ->
              if report.Merge.missing <> [] then
                failwith (Printf.sprintf "bench merge (%d shards): missing cells" shards);
              strip_timing_lines (Json.to_string (Report.sweep_json ~jobs:1 results))
        in
        let merge_s = elapsed t1 in
        let agree = merged = reference in
        if not agree then incr disagreements;
        let overhead = (shard_s +. merge_s) /. single_box_s in
        Table.add_row t
          [
            string_of_int shards;
            string_of_int ncells;
            Table.cell_float ~decimals:3 shard_s;
            Table.cell_float ~decimals:3 merge_s;
            Printf.sprintf "%.2fx" overhead;
            string_of_bool agree;
          ];
        Json.Obj
          [
            ("shards", Json.Int shards);
            ("shard_wall_s", Json.float shard_s);
            ("merge_wall_s", Json.float merge_s);
            ("overhead_vs_single_box", Json.float overhead);
            ("artifact_agree", Json.Bool agree);
          ])
      [ 2; 4; 8 ]
  in
  Table.print t;
  Printf.printf "\n(single-box reference: %.3fs for %d cells)\n%!" single_box_s ncells;
  if json then begin
    let artifact =
      Json.Obj
        [
          ("schema", Json.Str "flowsched-bench-dist/1");
          ("jobs", Json.Int jobs);
          ("sweep_cells", Json.Int ncells);
          ("single_box_wall_s", Json.float single_box_s);
          ("shard_runs", Json.Arr shard_rows);
          ("disagreements", Json.Int !disagreements);
        ]
    in
    let path = "BENCH_dist.json" in
    let oc = open_out path in
    output_string oc (Json.to_string artifact);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end;
  if !disagreements > 0 then begin
    Printf.eprintf "FAIL: %d merged-artifact disagreement(s)\n%!" !disagreements;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Scenario matrix bench                                               *)
(* ------------------------------------------------------------------ *)

let scenarios_bench ?(json = false) ~jobs () =
  section "Scenario matrix — zoo workloads x problem modes across backends";
  Printf.printf
    "The matrix grid (workload zoo x flows/endpoint/coflow modes, LP bounds\n\
     on) runs through both executors; the artifact carries no timing\n\
     metadata, so the two JSON strings must be byte-identical — backends\n\
     may only differ in speed, never in results.\n\n%!";
  let module Scenario = Flowsched_scenarios.Scenario in
  let module Matrix = Flowsched_scenarios.Matrix in
  let kinds =
    [
      "poisson"; "pareto:1.5"; "lognormal:0.5:0.75"; "bursty:4:10:0.3";
      "diurnal:20:0.8"; "flash-crowd:4:4:4:0.5"; "bimodal:2:0.8"; "staircase";
    ]
  in
  let modes = [ "flows"; "endpoint:2:2"; "coflow:4:4" ] in
  let parse_exn ~what = function
    | Ok v -> v
    | Error msg -> failwith (Printf.sprintf "bench %s: %s" what msg)
  in
  let cells =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun mode ->
            List.map
              (fun seed ->
                {
                  Matrix.scenario =
                    {
                      Scenario.kind = parse_exn ~what:"kind" (Scenario.of_string kind);
                      m = 5;
                      rate = 2.5;
                      rounds = 8;
                      max_demand = 3;
                      seed;
                    };
                  mode = parse_exn ~what:"mode" (Matrix.mode_of_string mode);
                  lp = true;
                })
              [ 1; 2 ])
          modes)
      kinds
  in
  let ncells = List.length cells in
  let policies = Heuristics.all_paper_heuristics in
  let backend_rows, disagreements =
    compare_backends ~jobs ~ncells
      ~run:(fun backend -> Matrix.run ~policies ~backend ~jobs cells)
      ~artifact:(fun results -> Json.to_string (Matrix.to_json results))
  in
  if json then begin
    let artifact =
      Json.Obj
        [
          ("schema", Json.Str "flowsched-bench-scenarios/2");
          ("jobs", Json.Int jobs);
          ("matrix_cells", Json.Int ncells);
          ("kinds", Json.Arr (List.map (fun k -> Json.Str k) kinds));
          ("modes", Json.Arr (List.map (fun m -> Json.Str m) modes));
          ("backends", Json.Arr backend_rows);
          ("disagreements", Json.Int disagreements);
        ]
    in
    let path = "BENCH_scenarios.json" in
    let oc = open_out path in
    output_string oc (Json.to_string artifact);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n%!" path
  end;
  if disagreements > 0 then begin
    Printf.eprintf "FAIL: %d backend disagreement(s) on the matrix artifact\n%!"
      disagreements;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Component micro-benchmarks (Bechamel, monotonic clock)";
  Simplex.reset_counters ();
  let open Bechamel in
  let inst_small = Workload.uniform_total ~m:4 ~n:24 ~max_release:6 ~seed:41 in
  let inst_mid = Workload.uniform_total ~m:6 ~n:60 ~max_release:10 ~seed:42 in
  let graph_of inst =
    Flowsched_bipartite.Bgraph.create ~nl:inst.Instance.m ~nr:inst.Instance.m'
      (Array.map (fun (f : Flow.t) -> (f.Flow.src, f.Flow.dst)) inst.Instance.flows)
  in
  let big_graph =
    let g = Prng.create 9 in
    Flowsched_bipartite.Bgraph.create ~nl:150 ~nr:150
      (Array.init 2000 (fun _ -> (Prng.int g 150, Prng.int g 150)))
  in
  let weights =
    let g = Prng.create 10 in
    Array.init 2000 (fun _ -> float_of_int (Prng.int g 100))
  in
  let lp_model () =
    let built = Art_lp.build_round_lp inst_small in
    built.Art_lp.model
  in
  let prebuilt_lp = lp_model () in
  let tests =
    [
      Test.make ~name:"simplex: ART LP(1-4), n=24" (Staged.stage (fun () ->
          ignore (Flowsched_lp.Simplex.solve_or_fail prebuilt_lp)));
      Test.make ~name:"hopcroft-karp: 150x150, 2000 edges" (Staged.stage (fun () ->
          ignore (Flowsched_bipartite.Matching.max_cardinality_size big_graph)));
      Test.make ~name:"hungarian: 150x150, 2000 edges" (Staged.stage (fun () ->
          ignore (Flowsched_bipartite.Weighted_matching.max_weight big_graph weights)));
      Test.make ~name:"edge-coloring: 150x150, 2000 edges" (Staged.stage (fun () ->
          ignore (Flowsched_bipartite.Edge_coloring.color big_graph)));
      Test.make ~name:"bvn-decompose: n=60 queue graph" (Staged.stage (fun () ->
          ignore (Flowsched_bipartite.Bvn.decompose (graph_of inst_mid))));
      Test.make ~name:"iterative-rounding: n=24" (Staged.stage (fun () ->
          ignore (Iterative_rounding.run inst_small)));
      Test.make ~name:"mrt-solve: n=24" (Staged.stage (fun () ->
          ignore (Mrt_scheduler.solve inst_small)));
      Test.make ~name:"workload-gen: poisson m=150 T=20" (Staged.stage (fun () ->
          ignore (Workload.poisson ~m:150 ~rate:150. ~rounds:20 ~seed:1)));
      Test.make ~name:"fig6-cell: heuristics m=6 T=6 (no LP)" (Staged.stage (fun () ->
          ignore
            (Experiment.run_cell ~policies:Heuristics.all_paper_heuristics
               {
                 Experiment.m = 6;
                 rate = 6.;
                 rounds = 6;
                 tries = 1;
                 seed = 5;
                 with_lp = false;
               })));
      Test.make ~name:"fig7-bound: min fractional rho, n=24" (Staged.stage (fun () ->
          ignore (Mrt_scheduler.min_fractional_rho inst_small)));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false ()
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let table = Table.create [ ("benchmark", Table.Left); ("time/run", Table.Right); ("r^2", Table.Right) ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let result = Benchmark.run cfg instances elt in
          let ols =
            Analyze.one
              (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| "run" |])
              Toolkit.Instance.monotonic_clock result
          in
          let estimate =
            match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
          in
          let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
          let human t =
            if Float.is_nan t then "-"
            else if t >= 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
            else if t >= 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else if t >= 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
            else Printf.sprintf "%.0f ns" t
          in
          Table.add_row table
            [ Test.Elt.name elt; human estimate; Table.cell_float ~decimals:3 r2 ])
        (Test.elements test))
    tests;
  Table.print table;
  let c = Simplex.read_counters () in
  Printf.printf
    "\nsimplex counters across all micro runs: %d solves, %d pivots, %d ftran,\n\
     %d refactorizations, %d full scans, %d partial rounds, warm %d/%d accepted,\n\
     %d phase-1 skips, %.3fs phase 1, %.3fs phase 2\n%!"
    c.Simplex.solves c.Simplex.pivots c.Simplex.ftran_calls c.Simplex.refactorizations
    c.Simplex.full_pricing_scans c.Simplex.partial_pricing_rounds c.Simplex.warm_accepted
    c.Simplex.warm_attempts c.Simplex.phase1_skipped c.Simplex.phase1_seconds
    c.Simplex.phase2_seconds

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* Pull `--jobs N` out of the argument list; every remaining argument is
     handled by the per-mode matching below. *)
  let rec extract_jobs acc = function
    | "--jobs" :: "auto" :: rest -> (Pool.default_jobs (), List.rev_append acc rest)
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> (n, List.rev_append acc rest)
        | _ ->
            Printf.eprintf
              "bad --jobs value %S (expected a positive integer or \"auto\")\n" v;
            exit 2)
    | "--jobs" :: [] ->
        Printf.eprintf "--jobs needs a value\n";
        exit 2
    | x :: rest -> extract_jobs (x :: acc) rest
    | [] -> (Pool.default_jobs (), List.rev acc)
  in
  let jobs, args = extract_jobs [] args in
  let t0 = Unix.gettimeofday () in
  (match args with
  | [] ->
      figures ~profile:`Default ~jobs ();
      figures ~profile:`Full ~jobs ();
      ablations ~jobs ();
      adversarial ~jobs ();
      micro ()
  | "figures" :: rest ->
      let profile =
        if List.mem "--full" rest then `Full
        else if List.mem "--paper" rest then `Paper
        else `Default
      in
      figures ~profile ~jobs ~json:(List.mem "--json" rest) ()
  | "ablations" :: _ -> ablations ~jobs ()
  | "adversarial" :: _ -> adversarial ~jobs ()
  | "micro" :: _ -> micro ()
  | "lp" :: rest ->
      lp_bench ~json:(List.mem "--json" rest) ~smoke:(List.mem "--smoke" rest) ()
  | "lp-large" :: n :: rest ->
      (* One large-tier cell on its own, for timing work on the LP engine. *)
      let n = int_of_string n in
      let explicit_ub_rows = List.mem "--rows" rest in
      let _, (_, _, rows, cold, warm, c, fill, cold_s, warm_s, agree) =
        lp_large_run ~explicit_ub_rows ~label:"probe" ~n ()
      in
      Printf.printf
        "n=%d rows=%d cold_piv=%d warm_piv=%d refact=%d fill=%.2f eta_nnz=%d flips=%d \
         cold=%.3fs warm=%.3fs agree=%b\n"
        n rows cold.Simplex.iterations warm.Simplex.iterations c.Simplex.refactorizations
        fill c.Simplex.eta_nnz c.Simplex.bound_flips cold_s warm_s agree
  | "serve" :: rest -> serve_bench ~json:(List.mem "--json" rest) ()
  | "exec" :: rest -> exec_bench ~json:(List.mem "--json" rest) ~jobs ()
  | "dist" :: rest -> dist_bench ~json:(List.mem "--json" rest) ~jobs ()
  | "scenarios" :: rest -> scenarios_bench ~json:(List.mem "--json" rest) ~jobs ()
  | other :: _ ->
      Printf.eprintf
        "unknown bench mode %S (try figures|ablations|adversarial|micro|lp|serve|exec|dist|scenarios)\n"
        other;
      exit 2);
  section "Metrics registry";
  print_string (Flowsched_obs.Metrics.to_text (Flowsched_obs.Metrics.snapshot ()));
  Printf.printf "\nall benches finished in %.1fs\n%!" (elapsed t0)
