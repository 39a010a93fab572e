(* Tests for the FS-MRT pipeline: LP (19)-(21), the Lemma 4.3-style
   rounding, the binary-search solver, and the deadline model of
   Remark 4.2. *)

open Flowsched_switch
open Flowsched_core

let mk ?cap_in ?cap_out ~m specs = Instance.of_flows ?cap_in ?cap_out ~m ~m':m specs

let tiny_instance seed ~m ~n ~maxrel =
  let g = Flowsched_util.Prng.create seed in
  mk ~m
    (List.init n (fun _ ->
         ( Flowsched_util.Prng.int g m,
           Flowsched_util.Prng.int g m,
           1,
           Flowsched_util.Prng.int g (maxrel + 1) )))

let demand_instance seed ~m ~n ~maxrel ~max_demand =
  let g = Flowsched_util.Prng.create seed in
  mk
    ~cap_in:(Array.make m max_demand)
    ~cap_out:(Array.make m max_demand)
    ~m
    (List.init n (fun _ ->
         ( Flowsched_util.Prng.int g m,
           Flowsched_util.Prng.int g m,
           1 + Flowsched_util.Prng.int g max_demand,
           Flowsched_util.Prng.int g (maxrel + 1) )))

(* --- active-round helpers --- *)

let test_active_of_rho () =
  let inst = mk ~m:1 [ (0, 0, 1, 2) ] in
  Alcotest.(check (list int)) "window" [ 2; 3; 4 ] (Mrt_lp.active_of_rho inst 3 0);
  Alcotest.check_raises "rho 0" (Invalid_argument "Mrt_lp.active_of_rho: rho must be >= 1")
    (fun () ->
      let (_ : Mrt_lp.active) = Mrt_lp.active_of_rho inst 0 in
      ())

let test_active_of_deadlines () =
  let inst = mk ~m:1 [ (0, 0, 1, 2) ] in
  Alcotest.(check (list int)) "inclusive deadline" [ 2; 3 ]
    (Mrt_lp.active_of_deadlines inst [| 3 |] 0);
  let bad = Mrt_lp.active_of_deadlines inst [| 1 |] in
  Alcotest.check_raises "deadline before release"
    (Invalid_argument "Mrt_lp.active_of_deadlines: deadline before release") (fun () ->
      ignore (bad 0))

(* --- LP feasibility --- *)

let test_lp_feasibility_basic () =
  (* 2 flows on one unit port pair: rho=1 infeasible, rho=2 feasible. *)
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0) ] in
  Alcotest.(check bool) "rho=1 infeasible" false (Mrt_scheduler.feasible_rho inst 1);
  Alcotest.(check bool) "rho=2 feasible" true (Mrt_scheduler.feasible_rho inst 2);
  Alcotest.(check int) "binary search" 2 (Mrt_scheduler.min_fractional_rho inst)

let test_lp_fractional_below_integral () =
  (* 3 unit flows pairwise sharing ports (triangle-ish): fractional can be
     strictly below integral.  inputs {0,1}, outputs {0,1}:
     (0,0),(0,1),(1,0) all released at 0: integral needs rho=2;
     fractional: each 1/... port 0-in carries 2 flows -> fractional rho 2 as
     well; just assert frac <= exact. *)
  let inst = mk ~m:2 [ (0, 0, 1, 0); (0, 1, 1, 0); (1, 0, 1, 0) ] in
  let frac = Mrt_scheduler.min_fractional_rho inst in
  match Exact.min_max_response inst with
  | Some (exact, _) -> Alcotest.(check bool) "frac <= exact" true (frac <= exact)
  | None -> Alcotest.fail "exact solver found no schedule"

let prop_fractional_rho_lower_bounds_exact =
  QCheck2.Test.make ~name:"min fractional rho <= exact optimum" ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 3) (int_range 1 6))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:2 in
      let frac = Mrt_scheduler.min_fractional_rho inst in
      match Exact.min_max_response inst with
      | Some (exact, _) -> frac <= exact
      | None -> false)

let prop_feasibility_monotone =
  QCheck2.Test.make ~name:"LP feasibility monotone in rho" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 10))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:3 in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      Mrt_scheduler.feasible_rho inst rho
      && Mrt_scheduler.feasible_rho inst (rho + 1)
      && ((rho = 1) || not (Mrt_scheduler.feasible_rho inst (rho - 1))))

let test_rho_search_warm_matches_cold () =
  (* Basis reuse across the bisection probes must not change the answer
     (feasibility of each probe LP is vertex-independent) and must strictly
     reduce the total pivot count.  The gallop probes run cold either way,
     so the instance must leave the density bound below rho: there the
     gallop overshoots and the bisection runs warm-chained probes. *)
  let module Simplex = Flowsched_lp.Simplex in
  let inst = tiny_instance 87 ~m:4 ~n:24 ~maxrel:4 in
  Simplex.reset_counters ();
  let rho_cold = Mrt_scheduler.min_fractional_rho ~warm_start:false inst in
  let cold_pivots = (Simplex.read_counters ()).Simplex.pivots in
  Simplex.reset_counters ();
  let rho_warm = Mrt_scheduler.min_fractional_rho ~warm_start:true inst in
  let warm_pivots = (Simplex.read_counters ()).Simplex.pivots in
  let bound = Mrt_scheduler.density_lower_bound inst in
  Alcotest.(check bool)
    (Printf.sprintf "bound below rho, so the bisection runs (%d < %d)" bound rho_cold)
    true (bound < rho_cold);
  Alcotest.(check int) "identical rho" rho_cold rho_warm;
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer pivots (%d < %d)" warm_pivots cold_pivots)
    true
    (warm_pivots < cold_pivots)

(* --- density lower bound and the galloping search --- *)

let test_density_bound_single_port () =
  (* Three unit flows released at round 0 on a unit port pair need three
     rounds: the bound is tight.  A caller-supplied [hi] below it is
     infeasible, so the search fails as it always has; [hi] equal to rho*
     is returned. *)
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0); (0, 0, 1, 0) ] in
  Alcotest.(check int) "bound" 3 (Mrt_scheduler.density_lower_bound inst);
  Alcotest.(check int) "rho" 3 (Mrt_scheduler.min_fractional_rho inst);
  Alcotest.check_raises "hi below bound"
    (Failure "Mrt_scheduler.min_fractional_rho: upper bound infeasible") (fun () ->
      ignore (Mrt_scheduler.min_fractional_rho ~hi:2 inst));
  Alcotest.(check int) "hi = rho" 3 (Mrt_scheduler.min_fractional_rho ~hi:3 inst)

let test_density_bound_windowed () =
  (* Capacity 2.  One flow at round 0, then five unit flows and a
     demand-2 flow at round 2.  The window [2, 2] carries 7 units:
     ceil (7 / 2) = 4.  The wider window [0, 2] gives only
     ceil ((8 - 2 * 2) / 2) = 2, so the maximum must come from a window
     that does not start at round 0. *)
  let inst =
    mk ~cap_in:[| 2 |] ~cap_out:[| 2 |] ~m:1
      ((0, 0, 1, 0) :: (0, 0, 2, 2) :: List.init 5 (fun _ -> (0, 0, 1, 2)))
  in
  Alcotest.(check int) "bound" 4 (Mrt_scheduler.density_lower_bound inst);
  Alcotest.(check int) "rho" 4 (Mrt_scheduler.min_fractional_rho inst)

let test_density_bound_loose () =
  (* Every single port fits in rho = 2 (input 1 carries flows released at
     0, 0, 1, 2; output 1 flows at 1, 2, 2), but not both at once: at
     rho = 2 input 1's two round-0 flows fill rounds 0-1, which pushes its
     round-1 flow to round 2 and its round-2 flow to round 3; output 1 is
     then full in rounds 2 and 3, leaving no room for flow (0, 1) released
     at round 2.  So rho* = 3 > bound = 2. *)
  let inst = mk ~m:2 [ (0, 1, 1, 2); (1, 0, 1, 0); (1, 0, 1, 0); (1, 1, 1, 1); (1, 1, 1, 2) ] in
  Alcotest.(check int) "bound" 2 (Mrt_scheduler.density_lower_bound inst);
  Alcotest.(check bool) "rho=2 infeasible" false (Mrt_scheduler.feasible_rho inst 2);
  Alcotest.(check int) "rho" 3 (Mrt_scheduler.min_fractional_rho inst)

(* Reference search: plain bisection over [1, horizon] on the feasibility
   oracle. *)
let reference_rho inst =
  let lo = ref 1 and hi = ref (Art_lp.default_horizon inst) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Mrt_scheduler.feasible_rho inst mid then hi := mid else lo := mid + 1
  done;
  !lo

(* Capacities 1-3, demands 1-3 (at most the flow's kappa), up to 8 flows,
   possibly none (the empty instance); the last port on each side carries no
   flow when m > 1. *)
let capacity_instance seed ~m ~n ~maxrel =
  let g = Flowsched_util.Prng.create seed in
  let cap () = 1 + Flowsched_util.Prng.int g 3 in
  let cap_in = Array.init m (fun _ -> cap ()) and cap_out = Array.init m (fun _ -> cap ()) in
  let used = max 1 (m - 1) in
  mk ~cap_in ~cap_out ~m
    (List.init n (fun _ ->
         let s = Flowsched_util.Prng.int g used and d = Flowsched_util.Prng.int g used in
         let kappa = min cap_in.(s) cap_out.(d) in
         (s, d, 1 + Flowsched_util.Prng.int g kappa, Flowsched_util.Prng.int g (maxrel + 1))))

let prop_galloping_search_matches_bisection =
  QCheck2.Test.make ~name:"density bound <= rho = plain bisection, rho least feasible"
    ~count:150
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 4) (int_range 0 8) (int_range 0 4))
    (fun (seed, m, n, maxrel) ->
      let inst = capacity_instance seed ~m ~n ~maxrel in
      let bound = Mrt_scheduler.density_lower_bound inst in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      let hi_below_bound_fails =
        bound = 1
        ||
        match Mrt_scheduler.min_fractional_rho ~hi:(bound - 1) inst with
        | _ -> false
        | exception Failure msg -> msg = "Mrt_scheduler.min_fractional_rho: upper bound infeasible"
      in
      bound <= rho
      && rho = reference_rho inst
      && Mrt_scheduler.feasible_rho inst rho
      && (rho = 1 || not (Mrt_scheduler.feasible_rho inst (rho - 1)))
      && Mrt_scheduler.min_fractional_rho ~hi:rho inst = rho
      && hi_below_bound_fails)

let prop_declared_ub_matches_explicit_rows =
  (* The declared-bound formulation (x_{e,t} <= 1 enforced by the simplex's
     bounded-variable ratio test) must agree with the explicit-row oracle on
     feasibility at every rho around the threshold, and both solutions must
     fully schedule every flow. *)
  QCheck2.Test.make ~name:"Mrt_lp declared ubs = explicit rows" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 10))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:3 in
      let scheduled_ok frac =
        let sums = Array.make n 0. in
        Hashtbl.iter (fun (e, _) v -> sums.(e) <- sums.(e) +. v) frac.Mrt_lp.values;
        Array.for_all (fun s -> abs_float (s -. 1.) <= 1e-6) sums
      in
      List.for_all
        (fun rho ->
          let active = Mrt_lp.active_of_rho inst rho in
          match (Mrt_lp.solve inst active, Mrt_lp.solve ~explicit_ub_rows:true inst active) with
          | None, None -> true
          | Some a, Some b -> scheduled_ok a && scheduled_ok b
          | _ -> false)
        [ 1; 2; 3; 4 ])

(* --- rounding --- *)

let test_rounding_simple () =
  let inst = mk ~m:2 [ (0, 0, 1, 0); (0, 1, 1, 0); (1, 0, 1, 0); (1, 1, 1, 0) ] in
  match Mrt_rounding.round inst (Mrt_lp.active_of_rho inst 2) with
  | None -> Alcotest.fail "expected feasible rounding"
  | Some o ->
      Alcotest.(check bool) "complete" true (Schedule.is_complete o.Mrt_rounding.schedule);
      Alcotest.(check bool) "within guarantee" true o.Mrt_rounding.within_guarantee;
      Alcotest.(check int) "unit-demand bound" 1 o.Mrt_rounding.bound;
      Alcotest.(check bool) "respects active rounds" true
        (Schedule.max_response inst o.Mrt_rounding.schedule <= 2)

let test_rounding_infeasible () =
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0); (0, 0, 1, 0) ] in
  Alcotest.(check bool) "rho=1 cannot fit 3 flows even fractionally" true
    (Mrt_rounding.round inst (Mrt_lp.active_of_rho inst 1) = None)

let prop_rounding_guarantee_unit =
  QCheck2.Test.make ~name:"rounding: response <= rho, overflow <= 1 (unit)" ~count:50
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 5) (int_range 2 20))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:3 in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      match Mrt_rounding.round inst (Mrt_lp.active_of_rho inst rho) with
      | None -> false
      | Some o ->
          Schedule.is_complete o.Mrt_rounding.schedule
          && Schedule.max_response inst o.Mrt_rounding.schedule <= rho
          && o.Mrt_rounding.within_guarantee
          && o.Mrt_rounding.overflow <= 1)

let prop_rounding_guarantee_demands =
  QCheck2.Test.make ~name:"rounding: overflow <= 2 dmax - 1 (general demands)" ~count:40
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 2 4) (int_range 2 12) (int_range 2 4))
    (fun (seed, m, n, max_demand) ->
      let inst = demand_instance seed ~m ~n ~maxrel:3 ~max_demand in
      let rho = Mrt_scheduler.min_fractional_rho inst in
      match Mrt_rounding.round inst (Mrt_lp.active_of_rho inst rho) with
      | None -> false
      | Some o ->
          Schedule.max_response inst o.Mrt_rounding.schedule <= rho
          && o.Mrt_rounding.overflow <= (2 * Instance.dmax inst) - 1)

(* --- solver end to end --- *)

let test_solve_end_to_end () =
  let inst = tiny_instance 23 ~m:3 ~n:12 ~maxrel:3 in
  let sol = Mrt_scheduler.solve inst in
  Alcotest.(check bool) "valid under augmented caps" true
    (Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule);
  Alcotest.(check bool) "achieved rho below fractional target" true
    (sol.Mrt_scheduler.rho <= sol.Mrt_scheduler.fractional_rho)

let prop_solve_optimal_wrt_exact =
  (* Theorem 3: with augmentation the solver achieves max response <= the
     UN-augmented exact optimum. *)
  QCheck2.Test.make ~name:"Theorem 3: rho <= exact optimum, valid augmented" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 3) (int_range 1 6))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:2 in
      let sol = Mrt_scheduler.solve inst in
      match Exact.min_max_response inst with
      | Some (exact, _) ->
          sol.Mrt_scheduler.rho <= exact
          && Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule
      | None -> false)

(* --- deadlines (Remark 4.2) --- *)

let test_deadlines_feasible () =
  let inst = tiny_instance 29 ~m:3 ~n:10 ~maxrel:2 in
  (* deadlines taken from a serial schedule are always meetable *)
  let base = Instance.last_release inst in
  let deadlines =
    Array.init (Instance.n inst) (fun i -> base + i)
  in
  match Mrt_scheduler.solve_with_deadlines inst ~deadlines with
  | None -> Alcotest.fail "serial deadlines must be feasible"
  | Some sol ->
      Array.iteri
        (fun e d ->
          Alcotest.(check bool) "deadline met" true
            (Schedule.round_of sol.Mrt_scheduler.schedule e <= d))
        deadlines;
      Alcotest.(check bool) "valid under augmented" true
        (Schedule.is_valid sol.Mrt_scheduler.augmented sol.Mrt_scheduler.schedule)

let test_deadlines_infeasible () =
  (* two flows on the same unit port pair cannot both run at round 0 *)
  let inst = mk ~m:1 [ (0, 0, 1, 0); (0, 0, 1, 0) ] in
  Alcotest.(check bool) "impossible deadlines rejected" true
    (Mrt_scheduler.solve_with_deadlines inst ~deadlines:[| 0; 0 |] = None)

let prop_deadline_schedules_meet_deadlines =
  QCheck2.Test.make ~name:"deadline model: every met or None" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 4) (int_range 2 10))
    (fun (seed, m, n) ->
      let inst = tiny_instance seed ~m ~n ~maxrel:2 in
      let g = Flowsched_util.Prng.create (seed + 99) in
      let deadlines =
        Array.map
          (fun (f : Flow.t) -> f.Flow.release + Flowsched_util.Prng.int g 4)
          inst.Instance.flows
      in
      match Mrt_scheduler.solve_with_deadlines inst ~deadlines with
      | None -> true (* infeasible deadline sets are legitimate *)
      | Some sol ->
          Array.for_all
            (fun e -> Schedule.round_of sol.Mrt_scheduler.schedule e <= deadlines.(e))
            (Array.init (Instance.n inst) (fun i -> i))
          && sol.Mrt_scheduler.rounding.Mrt_rounding.within_guarantee)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_fractional_rho_lower_bounds_exact;
        prop_feasibility_monotone;
        prop_declared_ub_matches_explicit_rows;
        prop_rounding_guarantee_unit;
        prop_rounding_guarantee_demands;
        prop_solve_optimal_wrt_exact;
        prop_deadline_schedules_meet_deadlines;
        prop_galloping_search_matches_bisection;
      ]
  in
  Alcotest.run "flowsched_mrt"
    [
      ( "active-rounds",
        [
          Alcotest.test_case "of rho" `Quick test_active_of_rho;
          Alcotest.test_case "of deadlines" `Quick test_active_of_deadlines;
        ] );
      ( "lp",
        [
          Alcotest.test_case "feasibility + binary search" `Quick test_lp_feasibility_basic;
          Alcotest.test_case "fractional below integral" `Quick test_lp_fractional_below_integral;
          Alcotest.test_case "warm rho search matches cold" `Quick test_rho_search_warm_matches_cold;
          Alcotest.test_case "density bound: one port" `Quick test_density_bound_single_port;
          Alcotest.test_case "density bound: windowed, cap 2" `Quick test_density_bound_windowed;
          Alcotest.test_case "density bound: loose" `Quick test_density_bound_loose;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "simple" `Quick test_rounding_simple;
          Alcotest.test_case "infeasible detected" `Quick test_rounding_infeasible;
        ] );
      ( "solver",
        [
          Alcotest.test_case "end to end" `Quick test_solve_end_to_end;
          Alcotest.test_case "deadlines feasible" `Quick test_deadlines_feasible;
          Alcotest.test_case "deadlines infeasible" `Quick test_deadlines_infeasible;
        ] );
      ("properties", props);
    ]
