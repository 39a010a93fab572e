(* Tests for the simulator layer: workload generation, adaptive engine
   plumbing, the experiment grid, and report rendering. *)

open Flowsched_switch
open Flowsched_online
open Flowsched_sim

(* --- workload --- *)

let test_poisson_deterministic () =
  let a = Workload.poisson ~m:5 ~rate:2.5 ~rounds:10 ~seed:42 in
  let b = Workload.poisson ~m:5 ~rate:2.5 ~rounds:10 ~seed:42 in
  Alcotest.(check string) "same instance" (Instance.to_string a) (Instance.to_string b);
  let c = Workload.poisson ~m:5 ~rate:2.5 ~rounds:10 ~seed:43 in
  Alcotest.(check bool) "different seed differs" true
    (Instance.to_string a <> Instance.to_string c)

let test_poisson_shape () =
  let inst = Workload.poisson ~m:5 ~rate:3.0 ~rounds:12 ~seed:7 in
  Array.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "release in range" true (f.Flow.release >= 0 && f.Flow.release < 12);
      Alcotest.(check int) "unit demand" 1 f.Flow.demand;
      Alcotest.(check bool) "ports in range" true
        (f.Flow.src >= 0 && f.Flow.src < 5 && f.Flow.dst >= 0 && f.Flow.dst < 5))
    inst.Instance.flows

let test_poisson_mean_count () =
  (* law of large numbers over many trials *)
  let total = ref 0 in
  for seed = 0 to 199 do
    total := !total + Instance.n (Workload.poisson ~m:4 ~rate:2.0 ~rounds:10 ~seed)
  done;
  let mean = float_of_int !total /. 200. in
  Alcotest.(check bool) "mean near rate*rounds" true (abs_float (mean -. 20.) < 1.5)

let test_poisson_with_demands () =
  let inst = Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:8 ~max_demand:3 ~seed:5 in
  Alcotest.(check (array int)) "caps raised" (Array.make 4 3) inst.Instance.cap_in;
  Array.iter
    (fun (f : Flow.t) ->
      Alcotest.(check bool) "demand in range" true (f.Flow.demand >= 1 && f.Flow.demand <= 3))
    inst.Instance.flows

let test_uniform_total () =
  let inst = Workload.uniform_total ~m:3 ~n:17 ~max_release:4 ~seed:2 in
  Alcotest.(check int) "n exact" 17 (Instance.n inst);
  Alcotest.(check bool) "releases bounded" true (Instance.last_release inst <= 4)

(* --- arrival streams --- *)

(* The slot-t arrivals of a stream must be exactly the release-t flows of
   the batch instance built from the same seed, in generation order — the
   prefix property the serve layer leans on to replay served traces through
   the batch engine. *)
let check_stream_prefix name kind inst ~m ~rate ~rounds ~seed =
  let s = Workload.stream kind ~m ~rate ~seed in
  let streamed = Array.init rounds (fun _ -> Workload.stream_next s) in
  Alcotest.(check int) (name ^ ": slots generated") rounds (Workload.stream_slot s);
  let by_release = Array.make rounds [] in
  Array.iter
    (fun (f : Flow.t) ->
      by_release.(f.Flow.release) <-
        (f.Flow.src, f.Flow.dst, f.Flow.demand) :: by_release.(f.Flow.release))
    inst.Instance.flows;
  for t = 0 to rounds - 1 do
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "%s: slot %d arrivals" name t)
      (List.rev by_release.(t))
      streamed.(t)
  done

let test_stream_prefix_uniform () =
  check_stream_prefix "uniform" Workload.Uniform
    (Workload.poisson ~m:5 ~rate:2.5 ~rounds:40 ~seed:42)
    ~m:5 ~rate:2.5 ~rounds:40 ~seed:42

let test_stream_prefix_demands () =
  check_stream_prefix "demands" (Workload.Uniform_demands 3)
    (Workload.poisson_with_demands ~m:4 ~rate:2.0 ~rounds:30 ~max_demand:3 ~seed:5)
    ~m:4 ~rate:2.0 ~rounds:30 ~seed:5

let test_stream_prefix_skewed () =
  check_stream_prefix "skewed" (Workload.Skewed 1.2)
    (Workload.skewed ~m:6 ~rate:3.0 ~rounds:30 ~alpha:1.2 ~seed:8 ())
    ~m:6 ~rate:3.0 ~rounds:30 ~seed:8

let test_stream_prefix_hotspot () =
  check_stream_prefix "hotspot" (Workload.Hotspot 0.4)
    (Workload.hotspot ~m:6 ~rate:3.0 ~rounds:30 ~fraction:0.4 ~seed:11 ())
    ~m:6 ~rate:3.0 ~rounds:30 ~seed:11

(* --- horizon guard --- *)

let test_horizon_exceeded () =
  let never = { Policy.name = "never"; select = (fun _ -> []) } in
  let check name policy ~max_rounds specs ~round:want_round ~pending:want_pending =
    let inst = Instance.of_flows ~m:2 ~m':2 specs in
    match Engine.run_instance ~max_rounds policy inst with
    | r ->
        Alcotest.failf "%s: expected Horizon_exceeded, got %d of %d flows" name
          (Array.length r.Engine.flows) (Instance.n inst)
    | exception Engine.Horizon_exceeded { round; pending } ->
        Alcotest.(check int) (name ^ ": round reached") want_round round;
        Alcotest.(check int) (name ^ ": queue depth carried") want_pending pending
  in
  check "starved queue" never ~max_rounds:37 [ (0, 1, 1, 0); (1, 0, 1, 2) ] ~round:37 ~pending:2;
  (* A flow released after the horizon is still owed, so the run raises
     instead of returning a truncated result, whatever the flow order. *)
  check "early flow first" Heuristics.fifo ~max_rounds:10 [ (0, 0, 1, 0); (0, 0, 1, 50) ]
    ~round:10 ~pending:0;
  check "late flow first" Heuristics.fifo ~max_rounds:10 [ (0, 0, 1, 50); (0, 0, 1, 0) ]
    ~round:10 ~pending:0

(* --- adaptive engine plumbing --- *)

let test_adaptive_ids_sequential () =
  let arrivals ~round ~pending:_ = if round < 3 then [ (0, 0, 1) ] else [] in
  let r =
    Engine.run_adaptive ~m:1 ~m':1 ~arrivals ~stop_arrivals_after:3 Heuristics.fifo
  in
  Alcotest.(check int) "three flows" 3 (Array.length r.Engine.flows);
  Array.iteri
    (fun i (f : Flow.t) -> Alcotest.(check int) "id = index" i f.Flow.id)
    r.Engine.flows

let test_adaptive_stops_arrivals () =
  let calls = ref 0 in
  let arrivals ~round:_ ~pending:_ =
    incr calls;
    [ (0, 0, 1) ]
  in
  let r =
    Engine.run_adaptive ~m:1 ~m':1 ~arrivals ~stop_arrivals_after:4 Heuristics.fifo
  in
  Alcotest.(check int) "callback consulted 4 times" 4 !calls;
  Alcotest.(check int) "four flows" 4 (Array.length r.Engine.flows)

let test_adaptive_sees_pending () =
  (* the adversary observes the one flow FIFO could not schedule *)
  let observed = ref (-1) in
  let arrivals ~round ~pending =
    if round = 0 then [ (0, 0, 1); (0, 0, 1) ]
    else begin
      if round = 1 then observed := List.length pending;
      []
    end
  in
  ignore (Engine.run_adaptive ~m:1 ~m':1 ~arrivals ~stop_arrivals_after:2 Heuristics.fifo);
  Alcotest.(check int) "one pending at round 1" 1 !observed

(* --- experiment grid --- *)

let test_run_cell_without_lp () =
  let cell =
    Experiment.run_cell ~policies:Heuristics.all_paper_heuristics
      {
        Experiment.m = 4;
        rate = 2.0;
        rounds = 5;
        tries = 3;
        seed = 11;
        with_lp = false;
      }
  in
  Alcotest.(check int) "three policies (avg)" 3 (List.length cell.Experiment.avg_response);
  Alcotest.(check int) "three policies (max)" 3 (List.length cell.Experiment.max_response);
  Alcotest.(check bool) "lp skipped" true (Float.is_nan cell.Experiment.lp_avg_bound);
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "avg >= 1" true (v >= 1.))
    cell.Experiment.avg_response

let test_run_cell_with_lp () =
  let cell =
    Experiment.run_cell ~policies:Heuristics.all_paper_heuristics
      {
        Experiment.m = 3;
        rate = 1.5;
        rounds = 4;
        tries = 2;
        seed = 5;
        with_lp = true;
      }
  in
  Alcotest.(check bool) "lp bound computed" true
    (not (Float.is_nan cell.Experiment.lp_avg_bound));
  Alcotest.(check bool) "lp max bound computed" true
    (not (Float.is_nan cell.Experiment.lp_max_bound));
  (* Lemma 3.1/relaxation: bounds sit below every heuristic *)
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " above avg LP") true
        (v >= cell.Experiment.lp_avg_bound -. 1e-6))
    cell.Experiment.avg_response;
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " above max LP") true
        (v >= cell.Experiment.lp_max_bound -. 1e-6))
    cell.Experiment.max_response

let test_fig6_grid_layout () =
  let grid =
    Experiment.fig6_grid ~m:6 ~tries:2 ~lp_rounds_limit:8 ~congestion:[ 0.5; 1.0 ]
      ~rounds:[ 6; 8; 12 ] ()
  in
  Alcotest.(check int) "cells" 6 (List.length grid);
  List.iter
    (fun (c : Experiment.cell_config) ->
      Alcotest.(check bool) "lp flag respects limit" true
        (c.Experiment.with_lp = (c.Experiment.rounds <= 8));
      Alcotest.(check bool) "rate scales with m" true
        (c.Experiment.rate = 3.0 || c.Experiment.rate = 6.0))
    grid

(* --- report --- *)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let sample_results () =
  Experiment.run_grid ~policies:Heuristics.all_paper_heuristics
    [
      { Experiment.m = 3; rate = 1.0; rounds = 4; tries = 2; seed = 3; with_lp = true };
      { Experiment.m = 3; rate = 3.0; rounds = 4; tries = 2; seed = 4; with_lp = false };
    ]

let test_report_tables () =
  let results = sample_results () in
  let f6 = Report.fig6_table results and f7 = Report.fig7_table results in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in fig6") true (contains f6 name);
      Alcotest.(check bool) (name ^ " in fig7") true (contains f7 name))
    [ "MaxCard"; "MinRTime"; "MaxWeight"; "LP bound" ];
  Alcotest.(check bool) "lp-less cell rendered with dashes" true (contains f6 "-")

let test_report_csv () =
  let results = sample_results () in
  let csv = Report.csv ~objective:`Avg results in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (* header + 2 cells x 3 policies *)
  Alcotest.(check int) "line count" 7 (List.length lines);
  Alcotest.(check bool) "header" true
    (contains (List.hd lines) "policy,value,lp_bound")

(* --- properties --- *)

let prop_workload_poisson_counts =
  QCheck2.Test.make ~name:"poisson instance validates" ~count:50
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 8) (int_range 1 15))
    (fun (seed, m, rounds) ->
      let inst = Workload.poisson ~m ~rate:1.5 ~rounds ~seed in
      Instance.last_release inst <= rounds - 1 || Instance.n inst = 0)

let prop_engine_matches_offline_fifo =
  (* the online FIFO engine and the offline FIFO baseline must agree *)
  QCheck2.Test.make ~name:"online FIFO = offline FIFO baseline" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 25))
    (fun (seed, n) ->
      let inst = Workload.uniform_total ~m:4 ~n ~max_release:5 ~seed in
      let online = Engine.run_instance Heuristics.fifo inst in
      let offline = Flowsched_core.Baselines.fifo inst in
      Schedule.assignment online.Engine.schedule = Schedule.assignment offline)

(* --- the policy core against its list-based reference --- *)

(* The list-based policy core the engine had before its array-backed queue,
   kept as an independent oracle with its own plain slot loop: the pending
   list oldest-first with arrivals appended ([pending @ batch]), the queue
   rebuilt with [Array.of_list] whenever it changed, and the chosen flows
   filtered out by id.  [arrive queued round] is consulted while
   [more round]; returns the (id, round) assignment, makespan and idle
   rounds. *)
let reference_drive ~m ~m' ~cap_in ~cap_out ~more ~arrive (policy : Policy.t) =
  let pending = ref [] and cache = ref [||] and stale = ref true in
  let assignment = ref [] and makespan = ref 0 and idle = ref 0 in
  let round = ref 0 in
  while more !round || !pending <> [] do
    (if more !round then
       match arrive (fun () -> !pending) !round with
       | [] -> ()
       | batch ->
           pending := !pending @ batch;
           stale := true);
    if !stale then begin
      cache := Array.of_list !pending;
      stale := false
    end;
    let queue = !cache in
    (match policy.Policy.select { Policy.m; m'; cap_in; cap_out; round = !round; queue } with
    | [] -> if !pending <> [] then incr idle
    | selected ->
        let chosen = Hashtbl.create 8 in
        List.iter (fun i -> Hashtbl.replace chosen queue.(i).Flow.id ()) selected;
        pending :=
          List.filter (fun (f : Flow.t) -> not (Hashtbl.mem chosen f.Flow.id)) !pending;
        stale := true;
        List.iter (fun i -> assignment := (queue.(i).Flow.id, !round) :: !assignment) selected;
        makespan := !round + 1);
    incr round
  done;
  (!assignment, !makespan, !idle)

(* What the property compares: schedule, responses, makespan, idle rounds. *)
let reference_result flows (assignment, makespan, idle) =
  let slots = Array.make (Array.length flows) (-1) in
  List.iter (fun (id, r) -> slots.(id) <- r) assignment;
  let responses = Array.mapi (fun i r -> r + 1 - flows.(i).Flow.release) slots in
  (slots, responses, makespan, idle)

let engine_result (r : Engine.result) =
  (Schedule.assignment r.Engine.schedule, r.Engine.responses, r.Engine.makespan,
   r.Engine.rounds_idle)

let reference_run_instance policy (inst : Instance.t) =
  let last = Instance.last_release inst in
  reference_result inst.Instance.flows
    (reference_drive ~m:inst.Instance.m ~m':inst.Instance.m' ~cap_in:inst.Instance.cap_in
       ~cap_out:inst.Instance.cap_out
       ~more:(fun round -> round <= last)
       ~arrive:(fun _ round -> Instance.arrivals inst round)
       policy)

let reference_run_adaptive ~m ~m' ~arrivals ~stop_arrivals_after policy =
  let arrived = ref [] and next_id = ref 0 in
  let arrive queued round =
    List.map
      (fun (src, dst, demand) ->
        let f = Flow.make ~id:!next_id ~src ~dst ~demand ~release:round () in
        incr next_id;
        arrived := f :: !arrived;
        f)
      (arrivals ~round ~pending:(queued ()))
  in
  let run =
    reference_drive ~m ~m' ~cap_in:(Array.make m 1) ~cap_out:(Array.make m' 1)
      ~more:(fun round -> round < stop_arrivals_after)
      ~arrive policy
  in
  reference_result (Array.of_list (List.rev !arrived)) run

(* Random instances: caps 1-3, demands up to the flow's port capacity,
   releases 0-7 in any array order. *)
let gen_core_instance =
  let open QCheck2.Gen in
  let* m = int_range 1 4 and* m' = int_range 1 4 in
  let* cap_in = array_size (return m) (int_range 1 3)
  and* cap_out = array_size (return m') (int_range 1 3) in
  let flow =
    let* src = int_bound (m - 1) and* dst = int_bound (m' - 1) and* release = int_bound 7 in
    let+ demand = int_range 1 (min cap_in.(src) cap_out.(dst)) in
    (src, dst, demand, release)
  in
  let+ specs = list_size (int_bound 16) flow in
  Instance.of_flows ~cap_in ~cap_out ~m ~m' specs

(* [random_policy] is stateful, so each side gets a fresh one. *)
let core_policies =
  [
    (fun () -> Heuristics.maxcard);
    (fun () -> Heuristics.minrtime);
    (fun () -> Heuristics.maxweight);
    (fun () -> Heuristics.fifo);
    (fun () -> Heuristics.random_policy ~seed:11);
    (fun () -> Heuristics.srpt);
  ]

(* An adaptive arrival callback on the instance's ports: each round's
   released flows at unit demand, plus, while anything is pending, one flow
   on the oldest pending flow's input and the newest one's output.  It logs
   every pending list it is shown. *)
let adaptive_arrivals (inst : Instance.t) log ~round ~pending =
  log := pending :: !log;
  let released =
    List.map (fun (f : Flow.t) -> (f.Flow.src, f.Flow.dst, 1)) (Instance.arrivals inst round)
  in
  match pending with
  | [] -> released
  | (oldest : Flow.t) :: _ ->
      let newest = List.nth pending (List.length pending - 1) in
      released @ [ (oldest.Flow.src, newest.Flow.dst, 1) ]

let rec oldest_first = function
  | (a : Flow.t) :: (b :: _ as rest) -> a.Flow.id < b.Flow.id && oldest_first rest
  | _ -> true

let prop_policy_core_matches_reference =
  QCheck2.Test.make ~name:"policy core = list-based reference, every heuristic" ~count:300
    ~print:Instance.to_string gen_core_instance (fun inst ->
      List.for_all
        (fun policy ->
          let name = (policy ()).Policy.name in
          if engine_result (Engine.run_instance (policy ()) inst)
             <> reference_run_instance (policy ()) inst
          then QCheck2.Test.fail_reportf "%s: run_instance diverges" name;
          let m = inst.Instance.m and m' = inst.Instance.m' in
          let seen = ref [] and seen_ref = ref [] in
          let r =
            Engine.run_adaptive ~m ~m' ~arrivals:(adaptive_arrivals inst seen)
              ~stop_arrivals_after:8 (policy ())
          in
          let r_ref =
            reference_run_adaptive ~m ~m' ~arrivals:(adaptive_arrivals inst seen_ref)
              ~stop_arrivals_after:8 (policy ())
          in
          if engine_result r <> r_ref then
            QCheck2.Test.fail_reportf "%s: run_adaptive diverges" name;
          if !seen <> !seen_ref then
            QCheck2.Test.fail_reportf "%s: adaptive pending lists differ" name;
          if not (List.for_all oldest_first !seen) then
            QCheck2.Test.fail_reportf "%s: pending list not oldest-first" name;
          true)
        core_policies)

(* --- parallel grids and the sweep artifact --- *)

let test_run_grid_parallel_identical () =
  let grid =
    Experiment.fig6_grid ~m:4 ~tries:2 ~seed:9 ~lp_rounds_limit:4 ~congestion:[ 0.5; 1. ]
      ~rounds:[ 3; 4 ] ()
  in
  let policies = Heuristics.all_paper_heuristics in
  let seq = Experiment.run_grid ~policies ~jobs:1 grid in
  let par = Experiment.run_grid ~policies ~jobs:3 grid in
  Alcotest.(check int) "same cell count" (List.length seq) (List.length par);
  Alcotest.(check bool) "identical results in job order" true (seq = par);
  Alcotest.(check string) "identical fig6 table" (Report.fig6_table seq)
    (Report.fig6_table par);
  Alcotest.(check string) "identical fig7 table" (Report.fig7_table seq)
    (Report.fig7_table par)

let sweep_cells =
  List.concat_map
    (fun workload ->
      List.map
        (fun seed ->
          {
            Experiment.workload;
            ports = 4;
            arrival_rate = 2.0;
            horizon = 4;
            max_demand = 2;
            sweep_seed = seed;
            lp = true;
          })
        [ 1; 2 ])
    [ "poisson"; "uniform" ]

let test_sweep_deterministic_across_jobs () =
  let policies = [ Heuristics.maxcard; Heuristics.maxweight ] in
  (* Discrete LP counters (pivots, warm accepts, ...) must be identical
     across job counts too; only the timing fields are nondeterministic. *)
  let strip_wall = Report.strip_sweep_timing in
  let seq = List.map strip_wall (Experiment.run_sweep ~policies ~jobs:1 sweep_cells) in
  let par = List.map strip_wall (Experiment.run_sweep ~policies ~jobs:3 sweep_cells) in
  Alcotest.(check bool) "sweep results identical up to wall-clock" true (seq = par)

let test_sweep_artifact_roundtrip () =
  let open Flowsched_util in
  let policies = [ Heuristics.maxcard; Heuristics.minrtime ] in
  let results = Experiment.run_sweep ~policies ~jobs:2 sweep_cells in
  let artifact = Report.sweep_json ~jobs:2 results in
  let parsed =
    match Json.parse (Json.to_string artifact) with
    | Ok v -> v
    | Error e -> Alcotest.failf "sweep artifact does not parse: %s" e
  in
  Alcotest.(check (option string)) "schema tag" (Some "flowsched-sweep/1")
    (Option.bind (Json.member "schema" parsed) Json.to_string_opt);
  Alcotest.(check (option int)) "jobs recorded" (Some 2)
    (Option.bind (Json.member "jobs" parsed) Json.to_int_opt);
  let cells = Json.to_list (Option.value ~default:Json.Null (Json.member "cells" parsed)) in
  Alcotest.(check int) "one JSON object per cell" (List.length results) (List.length cells);
  List.iter2
    (fun (r : Experiment.sweep_result) cell ->
      Alcotest.(check (option string)) "workload" (Some r.Experiment.sweep.Experiment.workload)
        (Option.bind (Json.member "workload" cell) Json.to_string_opt);
      Alcotest.(check (option int)) "flows" (Some r.Experiment.flows)
        (Option.bind (Json.member "flows" cell) Json.to_int_opt);
      let pols = Json.to_list (Option.value ~default:Json.Null (Json.member "policies" cell)) in
      Alcotest.(check int) "per-policy entries" (List.length r.Experiment.per_policy)
        (List.length pols);
      List.iter2
        (fun (p : Experiment.sweep_policy_result) pj ->
          Alcotest.(check (option string)) "policy name" (Some p.Experiment.policy)
            (Option.bind (Json.member "name" pj) Json.to_string_opt);
          (match Option.bind (Json.member "avg_response" pj) Json.to_float_opt with
          | Some art -> Alcotest.(check (float 1e-9)) "ART round-trips" p.Experiment.art art
          | None -> Alcotest.(check bool) "nan ART serialized as null" true (Float.is_nan p.Experiment.art));
          Alcotest.(check (option int)) "MRT round-trips" (Some p.Experiment.mrt)
            (Option.bind (Json.member "max_response" pj) Json.to_int_opt))
        r.Experiment.per_policy pols;
      match Option.bind (Json.member "lp_avg_bound" cell) Json.to_float_opt with
      | Some lp -> Alcotest.(check (float 1e-9)) "LP bound round-trips" r.Experiment.lp_avg lp
      | None -> Alcotest.(check bool) "nan LP serialized as null" true (Float.is_nan r.Experiment.lp_avg))
    results cells

let test_lp_failure_degrades_gracefully () =
  let open Flowsched_util in
  let policies = [ Heuristics.maxcard ] in
  let cell = List.hd sweep_cells in
  let c = Flowsched_obs.Metrics.counter "sweep.lp_errors" in
  let before = Flowsched_obs.Metrics.counter_value c in
  Experiment.lp_failure_for_tests := Some (Failure "synthetic LP failure");
  let r =
    Fun.protect
      ~finally:(fun () -> Experiment.lp_failure_for_tests := None)
      (fun () -> Experiment.run_sweep_cell ~policies cell)
  in
  Alcotest.(check bool) "both bounds degrade to nan" true
    (Float.is_nan r.Experiment.lp_avg && Float.is_nan r.Experiment.lp_max);
  (match r.Experiment.lp_error with
  | Some msg ->
      Alcotest.(check bool) "error text preserved" true
        (let rec go i =
           i + 20 <= String.length msg && (String.sub msg i 20 = "synthetic LP failure" || go (i + 1))
         in
         go 0)
  | None -> Alcotest.fail "lp_error must be set");
  Alcotest.(check int) "counted under sweep.lp_errors" (before + 1)
    (Flowsched_obs.Metrics.counter_value c);
  Alcotest.(check bool) "heuristics still measured" true (r.Experiment.per_policy <> []);
  (* The degraded cell still round-trips byte-identically through the
     checkpoint encoders: lp_error as a string, nan bounds as null. *)
  let j = Report.sweep_cell_json r in
  match Report.sweep_result_of_json ~sweep:cell j with
  | Ok r' ->
      Alcotest.(check string) "re-encode byte-identical" (Json.to_string j)
        (Json.to_string (Report.sweep_cell_json r'))
  | Error e -> Alcotest.failf "degraded cell does not decode: %s" e

let test_sweep_unknown_workload_rejected () =
  let bad = { (List.hd sweep_cells) with Experiment.workload = "fractal" } in
  Alcotest.(check bool) "raises Invalid_argument" true
    (match Experiment.sweep_instance bad with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- backends --- *)

module Backend = Flowsched_domains.Backend
module Metrics = Flowsched_obs.Metrics

let test_backend_of_string () =
  List.iter
    (fun b ->
      match Backend.of_string (Backend.to_string b) with
      | Ok b' -> Alcotest.(check bool) "round-trips" true (b = b')
      | Error e -> Alcotest.fail e)
    Backend.all;
  (match Backend.of_string "threads" with
  | Ok _ -> Alcotest.fail "accepted junk"
  | Error msg -> Alcotest.(check bool) "error names the choices" true (contains msg "inline|fork"));
  match Backend.of_string "domains" with
  | Ok _ -> Alcotest.fail "accepted the removed domains backend"
  | Error msg ->
      Alcotest.(check bool) "error says it was removed" true (contains msg "removed");
      Alcotest.(check bool) "error names the choices" true (contains msg "inline|fork")

(* Wall-clock and simplex phase timers are the only nondeterministic fields
   in a sweep result; zero them so renderings compare byte-for-byte. *)
let zero_timing (r : Experiment.sweep_result) =
  {
    r with
    Experiment.wall_s = 0.;
    lp_counters =
      Option.map
        (fun c -> { c with Flowsched_lp.Simplex.phase1_seconds = 0.; phase2_seconds = 0. })
        r.Experiment.lp_counters;
  }

(* Counter totals minus the executor's own bookkeeping, which depends on
   the worker count. *)
let algorithmic_counters snap =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Metrics.Counter n when not (contains name "pool." || contains name "trace.") ->
          Some (name, n)
      | _ -> None)
    snap

let prop_inline_equals_fork =
  QCheck2.Test.make ~name:"inline = fork (bytes, counters)" ~count:3
    QCheck2.Gen.(triple (int_range 1 1_000_000) (int_range 1 3) (int_range 3 5))
    (fun (seed, ncells, horizon) ->
      let policies = [ Heuristics.maxcard; Heuristics.minrtime ] in
      let cells =
        List.init ncells (fun i ->
            {
              Experiment.workload = (if (seed + i) mod 2 = 0 then "poisson" else "uniform");
              ports = 4;
              arrival_rate = 2.0;
              horizon;
              max_demand = 3;
              sweep_seed = seed + (31 * i);
              lp = true;
            })
      in
      let run backend jobs =
        let before = Metrics.snapshot () in
        let results = Experiment.run_sweep ~policies ~backend ~jobs cells in
        let counters = algorithmic_counters (Metrics.diff (Metrics.snapshot ()) before) in
        let artifact =
          Flowsched_util.Json.to_string
            (Report.sweep_json ~jobs:1 (List.map zero_timing results))
        in
        (artifact, counters)
      in
      let artifact_inline, counters_inline = run Backend.Inline 1 in
      let artifact_fork, counters_fork = run Backend.Fork 4 in
      if artifact_inline <> artifact_fork then
        QCheck2.Test.fail_report "fork artifact differs from inline";
      if counters_inline <> counters_fork then
        QCheck2.Test.fail_report "fork counter totals differ from inline";
      true)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_workload_poisson_counts;
        prop_engine_matches_offline_fifo;
        prop_inline_equals_fork;
        prop_policy_core_matches_reference;
      ]
  in
  Alcotest.run "flowsched_sim"
    [
      ( "workload",
        [
          Alcotest.test_case "deterministic" `Quick test_poisson_deterministic;
          Alcotest.test_case "shape" `Quick test_poisson_shape;
          Alcotest.test_case "mean count" `Slow test_poisson_mean_count;
          Alcotest.test_case "with demands" `Quick test_poisson_with_demands;
          Alcotest.test_case "uniform total" `Quick test_uniform_total;
        ] );
      ( "streams",
        [
          Alcotest.test_case "uniform prefix = batch" `Quick test_stream_prefix_uniform;
          Alcotest.test_case "demands prefix = batch" `Quick test_stream_prefix_demands;
          Alcotest.test_case "skewed prefix = batch" `Quick test_stream_prefix_skewed;
          Alcotest.test_case "hotspot prefix = batch" `Quick test_stream_prefix_hotspot;
          Alcotest.test_case "horizon exceeded is typed" `Quick test_horizon_exceeded;
        ] );
      ( "adaptive-engine",
        [
          Alcotest.test_case "sequential ids" `Quick test_adaptive_ids_sequential;
          Alcotest.test_case "arrival cutoff" `Quick test_adaptive_stops_arrivals;
          Alcotest.test_case "adversary sees queue" `Quick test_adaptive_sees_pending;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "cell without lp" `Quick test_run_cell_without_lp;
          Alcotest.test_case "cell with lp" `Quick test_run_cell_with_lp;
          Alcotest.test_case "fig6 grid layout" `Quick test_fig6_grid_layout;
        ] );
      ( "report",
        [
          Alcotest.test_case "tables" `Quick test_report_tables;
          Alcotest.test_case "csv" `Quick test_report_csv;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "grid parallel = sequential" `Quick
            test_run_grid_parallel_identical;
          Alcotest.test_case "sweep deterministic across jobs" `Quick
            test_sweep_deterministic_across_jobs;
          Alcotest.test_case "sweep artifact round-trip" `Quick test_sweep_artifact_roundtrip;
          Alcotest.test_case "lp failure degrades gracefully" `Quick
            test_lp_failure_degrades_gracefully;
          Alcotest.test_case "sweep unknown workload" `Quick
            test_sweep_unknown_workload_rejected;
        ] );
      ("backend", [ Alcotest.test_case "of_string" `Quick test_backend_of_string ]);
      ("properties", props);
    ]
