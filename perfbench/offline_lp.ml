(* offline-lp: the paper's offline algorithms at the scale the sparse
   simplex is built for.  One pass over an instance pair is the ART round
   LP at n = 240 (build, cold solve, warm re-solve from its own basis),
   Art_scheduler.solve ~c:1 on the same instance, and Mrt_scheduler.solve
   on a poisson-demands instance of about 180 flows. *)

open Flowsched_core
module W = Flowsched_sim.Workload
module Simplex = Flowsched_lp.Simplex
module Model = Flowsched_lp.Model
module Schedule = Flowsched_switch.Schedule
module Instance = Flowsched_switch.Instance
module Metrics = Flowsched_obs.Metrics

let art_n = 240

(* One instance pair.  The ART instance is fixed, in the style of the
   large-LP tier (uniform, m = 4, n = 240, releases 0..8): a cold solve at
   this size takes 2-4 s and its time varies by +-25% between random
   instances, far more than any bound allows, so it does not follow
   [--seed].  The MRT instance, whose solve time varies little, is drawn
   from the seed. *)
let setup seed =
  ( W.uniform_total ~m:4 ~n:art_n ~max_release:8 ~seed:77,
    W.poisson_with_demands ~m:6 ~rate:4.0 ~rounds:45 ~max_demand:3 ~seed:(seed * 100) )

type pass = {
  cold : Simplex.result;
  warm : Simplex.result;
  art : Art_scheduler.result;
  mrt : Mrt_scheduler.solution;
  cold_s : float;  (** Model build + cold solve. *)
  warm_s : float;
  art_s : float;
  mrt_s : float;
}

let pass (inst, minst) =
  let t0 = Clock.now () in
  let built = Art_lp.build_round_lp inst in
  let cold = Simplex.solve built.Art_lp.model in
  let t1 = Clock.now () in
  let warm = Simplex.solve ~warm:(Array.to_list cold.Simplex.basis) built.Art_lp.model in
  let t2 = Clock.now () in
  let art = Art_scheduler.solve ~c:1 inst in
  let t3 = Clock.now () in
  let mrt = Mrt_scheduler.solve minst in
  let t4 = Clock.now () in
  ( built.Art_lp.model,
    {
      cold;
      warm;
      art;
      mrt;
      cold_s = t1 -. t0;
      warm_s = t2 -. t1;
      art_s = t3 -. t2;
      mrt_s = t4 -. t3;
    } )

let pass_s p = p.cold_s +. p.warm_s +. p.art_s +. p.mrt_s

let check (inst, minst) (model, p) =
  let eps = 1e-6 in
  let art = p.art and mrt = p.mrt in
  Report.op
    "offline pass"
    [
      ("cold solve optimal", p.cold.Simplex.status = Simplex.Optimal);
      ("cold solution feasible", Model.is_feasible model p.cold.Simplex.values);
      ( "warm objective matches",
        abs_float (p.warm.Simplex.objective -. p.cold.Simplex.objective) <= eps );
      ("warm re-solve takes 0 pivots", p.warm.Simplex.iterations = 0);
      ( "ART schedule valid",
        Schedule.is_valid art.Art_scheduler.augmented art.Art_scheduler.schedule );
      ( "ART total >= LP total",
        float_of_int art.Art_scheduler.total_response >= art.Art_scheduler.lp_total -. eps );
      ( "ART covers the instance",
        Instance.n inst = Array.length (Schedule.assignment art.Art_scheduler.schedule) );
      ( "MRT schedule valid",
        Schedule.is_valid mrt.Mrt_scheduler.augmented mrt.Mrt_scheduler.schedule );
      ("MRT rho <= fractional rho", mrt.Mrt_scheduler.rho <= mrt.Mrt_scheduler.fractional_rho);
      ( "MRT overflow <= 2 dmax - 1",
        mrt.Mrt_scheduler.rounding.Mrt_rounding.overflow <= (2 * Instance.dmax minst) - 1 );
    ]

(* What a pass computes, without its timings. *)
let signature p =
  ( p.cold.Simplex.iterations,
    p.cold.Simplex.objective,
    Schedule.assignment p.art.Art_scheduler.schedule,
    Schedule.assignment p.mrt.Mrt_scheduler.schedule,
    p.mrt.Mrt_scheduler.fractional_rho )

(* Passes over the pair repeat until the time is up, at least [min_passes]
   of them, and each part of the pass (cold solve, warm re-solve, ART, MRT)
   reports its median over the passes, which keeps passes slowed by
   something outside the process from moving it. *)
let min_passes = 3

let run ~seed ~seconds =
  let input = setup seed in
  let first = ref None in
  let passes = ref [] in
  let t_end = Clock.now () +. seconds in
  while List.length !passes < min_passes || Clock.now () < t_end do
    (* Start each repetition from a compacted heap: neither its time nor the
       peak resident set then depends on garbage left by the one before. *)
    Gc.compact ();
    let model, p = pass input in
    (match !first with
    | None ->
        first := Some (signature p);
        check input (model, p);
        Report.first_rep_done ()
    | Some s -> Report.op "repeated pass is identical" [ ("identical", s = signature p) ]);
    passes := p :: !passes
  done;
  let med f = Stat.median (Array.of_list (List.map f !passes)) in
  let cold_s = med (fun p -> p.cold_s) and warm_s = med (fun p -> p.warm_s) in
  let art_s = med (fun p -> p.art_s) and mrt_s = med (fun p -> p.mrt_s) in
  let pass_s = cold_s +. warm_s +. art_s +. mrt_s in
  let note = Printf.sprintf "(median over %d passes)" (List.length !passes) in
  let named =
    [
      Report.metric "lp_cold_solve_s" "s" cold_s ~note;
      Report.metric "lp_warm_resolve_ms" "ms" (warm_s *. 1e3) ~note;
      Report.metric "art_solve_s" "s" art_s ~note;
      Report.metric "mrt_solve_s" "s" mrt_s ~note;
      Report.metric "offline_pass_s" "s" pass_s ~note:"(the sum of the four)";
    ]
  in
  (1. /. pass_s, cold_s *. 1e3, pass_s *. 1e3, named)

(* The pass again, decomposed into spans.  Iterative rounding runs a second
   time on its own so its share of Art_scheduler.solve shows; that extra
   call's registry counts and wall time are taken back out. *)
let trace ~seed (lt : Layers.t) =
  let inputs = [| setup seed |] in
  let untraced = Array.map pass inputs in
  lt.Layers.untraced_wall_s <- Stat.sum (Array.map (fun (_, p) -> pass_s p) untraced);
  let extra = ref [] in
  let traced =
    Layers.trace lt (fun () ->
        Array.mapi
          (fun i (inst, minst) ->
            Span.set_id i;
            Span.with_span "offline.pass" (fun () ->
                let built =
                  Span.with_span "art_lp.build_round_lp" (fun () -> Art_lp.build_round_lp inst)
                in
                let model = built.Art_lp.model in
                let cold =
                  Layers.lp_span lt "simplex.solve.cold" (fun () -> Simplex.solve model)
                in
                let warm =
                  Layers.lp_span lt "simplex.solve.warm" (fun () ->
                      Simplex.solve ~warm:(Array.to_list cold.Simplex.basis) model)
                in
                let art =
                  Layers.lp_span lt "art_scheduler.solve" (fun () ->
                      Art_scheduler.solve ~c:1 inst)
                in
                let s0 = Metrics.snapshot () in
                let _, ir =
                  Span.with_span "iterative_rounding.run" (fun () -> Iterative_rounding.run inst)
                in
                extra := Metrics.merge !extra (Metrics.diff (Metrics.snapshot ()) s0);
                let rho = Layers.rho_search lt minst in
                let rounding =
                  Layers.lp_span lt "mrt_rounding.round" (fun () ->
                      Mrt_rounding.round minst (Mrt_lp.active_of_rho minst rho))
                in
                (cold, warm, art, ir, rho, rounding)))
          inputs)
  in
  Span.set_id (-1);
  let ir_s = Span.total_s lt.Layers.spans "iterative_rounding.run" in
  lt.Layers.wall_s <- lt.Layers.wall_s -. ir_s;
  lt.Layers.registry <- Metrics.diff lt.Layers.registry !extra;
  lt.Layers.ops <- Array.length inputs;
  Array.iteri
    (fun i
         ( (cold : Simplex.result),
           (warm : Simplex.result),
           (art : Art_scheduler.result),
           (ir : Iterative_rounding.diagnostics),
           rho,
           rounding ) ->
      let _, u = untraced.(i) in
      let u_ir = u.art.Art_scheduler.diagnostics.Art_scheduler.rounding in
      Report.op
        (Printf.sprintf "traced pass %d matches the untraced one" i)
        [
          ("cold pivots", cold.Simplex.iterations = u.cold.Simplex.iterations);
          ("cold objective", cold.Simplex.objective = u.cold.Simplex.objective);
          ("warm pivots", warm.Simplex.iterations = u.warm.Simplex.iterations);
          ( "ART schedule",
            Schedule.assignment art.Art_scheduler.schedule
            = Schedule.assignment u.art.Art_scheduler.schedule );
          ( "IR iterations",
            ir.Iterative_rounding.iterations = u_ir.Iterative_rounding.iterations );
          ("fractional rho", rho = u.mrt.Mrt_scheduler.fractional_rho);
          ( "MRT schedule",
            match rounding with
            | Some r ->
                Schedule.assignment r.Mrt_rounding.schedule
                = Schedule.assignment u.mrt.Mrt_scheduler.schedule
            | None -> false );
        ])
    traced;
  let total name = Span.total_s lt.Layers.spans name in
  [
    Report.metric "lp_cold_solve_s" "s"
      (total "art_lp.build_round_lp" +. total "simplex.solve.cold");
    Report.metric "simplex.phase_s" "s" (Layers.phase_s lt);
    Report.metric "iterative_rounding.run_s" "s" ir_s;
    Report.metric "art_scheduler.convert_s" "s"
      (Float.max 0. (total "art_scheduler.solve" -. ir_s));
    Report.metric "mrt_scheduler.rho_search_s" "s" (total "mrt_scheduler.min_fractional_rho");
    Report.metric "mrt_rounding.round_s" "s" (total "mrt_rounding.round");
  ]
