open Flowsched_switch
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace

let c_rho_probes = Metrics.counter "mrt.rho_probes"
let c_rho_feasible = Metrics.counter "mrt.rho_probes_feasible"

type solution = {
  rho : int;
  fractional_rho : int;
  schedule : Schedule.t;
  augmented : Instance.t;
  rounding : Mrt_rounding.outcome;
}

let feasible_rho inst rho = Mrt_lp.is_fractionally_feasible inst (Mrt_lp.active_of_rho inst rho)

let default_hi inst =
  (* Uniform spreading after the last release is fractionally feasible, so
     every flow finishes within this span of its release. *)
  Art_lp.default_horizon inst

let density_lower_bound inst =
  let last = Instance.last_release inst in
  let best = ref 1 in
  (* One side of the switch: per-port demand by release round, allocated
     only for ports that carry a flow. *)
  let side caps port_of =
    let load = Array.make (Array.length caps) [||] in
    Array.iter
      (fun (f : Flow.t) ->
        let p = port_of f in
        if load.(p) = [||] then load.(p) <- Array.make (last + 1) 0;
        load.(p).(f.Flow.release) <- load.(p).(f.Flow.release) + f.Flow.demand)
      inst.Instance.flows;
    Array.iteri
      (fun p row ->
        if row <> [||] then begin
          let c = caps.(p) in
          (* excess(a, b) = D(a, b) - c (b - a)
                          = (P(b) - c b) - (P(a - 1) - c a),
             so the best window ending at b pairs P(b) - c b with the least
             P(a - 1) - c a over a <= b. *)
          let prefix = ref 0 and least = ref max_int in
          for b = 0 to last do
            least := min !least (!prefix - (c * b));
            prefix := !prefix + row.(b);
            let excess = !prefix - (c * b) - !least in
            if excess > 0 then best := max !best ((excess + c - 1) / c)
          done
        end)
      load
  in
  side inst.Instance.cap_in (fun f -> f.Flow.src);
  side inst.Instance.cap_out (fun f -> f.Flow.dst);
  !best

let min_fractional_rho ?hi ?(warm_start = true) inst =
  Trace.with_span "mrt.min_fractional_rho" (fun () ->
  let hi = match hi with Some h -> h | None -> default_hi inst in
  (* The bisection probe LPs differ only in their active sets, so the
     optimal basis of the last feasible probe seeds the next one: keys for
     rounds cut from the shrunken windows are dropped on translation.  The
     result — the least feasible rho — is independent of which vertex each
     probe lands on, so warm starting cannot change the answer. *)
  let warm = ref None in
  let probe rho =
    Metrics.incr c_rho_probes;
    Trace.with_span "mrt.rho_probe"
      ~args:(fun () -> [ ("rho", Flowsched_util.Json.Int rho) ])
      (fun () ->
        let active = Mrt_lp.active_of_rho inst rho in
        match Mrt_lp.solve ?warm:(if warm_start then !warm else None) inst active with
        | None -> false
        | Some frac ->
            Metrics.incr c_rho_feasible;
            warm := Some frac.Mrt_lp.basis;
            true)
  in
  (* Gallop up from the density bound: every rho below it is infeasible, so
     the first probe usually confirms the answer.  Until a probe succeeds
     there is no feasible basis, so these probes run cold. *)
  let rec gallop lo u =
    if probe u then (lo, u)
    else if u >= hi then
      failwith "Mrt_scheduler.min_fractional_rho: upper bound infeasible"
    else gallop (u + 1) (min hi (u + (2 * (u - lo)) + 2))
  in
  let start = min hi (density_lower_bound inst) in
  let lo, hi = gallop start start in
  (* invariant: hi feasible, lo - 1 infeasible (by a probe or the bound) *)
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if probe mid then hi := mid else lo := mid + 1
  done;
  !lo)

let augmentation inst = max 0 ((2 * Instance.dmax inst) - 1)

let solve ?rho inst =
  let fractional_rho = match rho with Some r -> r | None -> min_fractional_rho inst in
  match Mrt_rounding.round inst (Mrt_lp.active_of_rho inst fractional_rho) with
  | None -> failwith "Mrt_scheduler.solve: infeasible rho"
  | Some rounding ->
      let augmented = Instance.scale_capacities inst ~mult:1 ~add:(augmentation inst) in
      let schedule = rounding.Mrt_rounding.schedule in
      {
        rho = Schedule.max_response inst schedule;
        fractional_rho;
        schedule;
        augmented;
        rounding;
      }

let solve_with_deadlines inst ~deadlines =
  match Mrt_rounding.round inst (Mrt_lp.active_of_deadlines inst deadlines) with
  | None -> None
  | Some rounding ->
      let augmented = Instance.scale_capacities inst ~mult:1 ~add:(augmentation inst) in
      let schedule = rounding.Mrt_rounding.schedule in
      let rho = Schedule.max_response inst schedule in
      Some { rho; fractional_rho = rho; schedule; augmented; rounding }
