open Flowsched_switch

(* Matching-based policies run on the port-replicated expansion so that
   capacities > 1 are handled; with unit capacities the expansion is the
   identity and the behaviour is exactly the paper's.  The expansion counts
   flows rather than demand units, so for non-unit demands (outside the
   paper's experimental setting) the candidate matching is filtered through
   a demand-weighted capacity check, dropping the lightest-priority
   overflow; with unit demands the filter never fires.  At unit capacities
   the expansion returns the same vertex counts and edge pairs in the same
   order, so the queue graph is used as it is. *)
let expanded_graph ctx =
  let g = Policy.queue_graph ctx in
  let unit = Array.for_all (fun c -> c = 1) in
  if unit ctx.Policy.cap_in && unit ctx.Policy.cap_out then g
  else
    (Flowsched_bipartite.Bmatching.expand g ~cl:ctx.Policy.cap_in ~cr:ctx.Policy.cap_out)
      .Flowsched_bipartite.Bmatching.graph

let admit_feasible ctx candidates =
  let res_in = Array.copy ctx.Policy.cap_in and res_out = Array.copy ctx.Policy.cap_out in
  List.filter
    (fun i ->
      let f = ctx.Policy.queue.(i) in
      if res_in.(f.Flow.src) >= f.Flow.demand && res_out.(f.Flow.dst) >= f.Flow.demand
      then begin
        res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
        res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
        true
      end
      else false)
    candidates

let maxcard =
  {
    Policy.name = "MaxCard";
    select =
      (fun ctx ->
        if Array.length ctx.Policy.queue = 0 then []
        else
          admit_feasible ctx
            (Flowsched_bipartite.Matching.max_cardinality (expanded_graph ctx)));
  }

let weighted_select ctx weight_of =
  if Array.length ctx.Policy.queue = 0 then []
  else begin
    let g = expanded_graph ctx in
    let weights = Array.mapi (fun i _ -> weight_of i) ctx.Policy.queue in
    let matched = Flowsched_bipartite.Weighted_matching.max_weight g weights in
    (* keep the heaviest candidates when the demand filter has to drop any *)
    let by_weight = List.sort (fun a b -> compare weights.(b) weights.(a)) matched in
    admit_feasible ctx by_weight
  end

let minrtime =
  {
    Policy.name = "MinRTime";
    select =
      (fun ctx ->
        weighted_select ctx (fun i ->
            let f = ctx.Policy.queue.(i) in
            float_of_int (ctx.Policy.round - f.Flow.release + 1)));
  }

let maxweight =
  {
    Policy.name = "MaxWeight";
    select =
      (fun ctx ->
        let qin = Array.make ctx.Policy.m 0 and qout = Array.make ctx.Policy.m' 0 in
        Array.iter
          (fun (f : Flow.t) ->
            qin.(f.Flow.src) <- qin.(f.Flow.src) + 1;
            qout.(f.Flow.dst) <- qout.(f.Flow.dst) + 1)
          ctx.Policy.queue;
        weighted_select ctx (fun i ->
            let f = ctx.Policy.queue.(i) in
            float_of_int (qin.(f.Flow.src) + qout.(f.Flow.dst))));
  }

let fifo =
  { Policy.name = "FIFO"; select = (fun ctx -> Policy.greedy_pack ctx Flow.compare) }

let srpt =
  let order (a : Flow.t) (b : Flow.t) =
    match compare a.Flow.demand b.Flow.demand with 0 -> Flow.compare a b | c -> c
  in
  { Policy.name = "SRPT"; select = (fun ctx -> Policy.greedy_pack ctx order) }

let random_policy ~seed =
  let g = Flowsched_util.Prng.create seed in
  {
    Policy.name = "Random";
    select =
      (fun ctx ->
        let n = Array.length ctx.Policy.queue in
        if n = 0 then []
        else begin
          let order = Array.init n (fun i -> i) in
          Flowsched_util.Sampling.shuffle g order;
          let res_in = Array.copy ctx.Policy.cap_in in
          let res_out = Array.copy ctx.Policy.cap_out in
          Array.fold_left
            (fun acc i ->
              let f = ctx.Policy.queue.(i) in
              if res_in.(f.Flow.src) >= f.Flow.demand && res_out.(f.Flow.dst) >= f.Flow.demand
              then begin
                res_in.(f.Flow.src) <- res_in.(f.Flow.src) - f.Flow.demand;
                res_out.(f.Flow.dst) <- res_out.(f.Flow.dst) - f.Flow.demand;
                i :: acc
              end
              else acc)
            [] order
        end);
  }

let all_paper_heuristics = [ maxcard; minrtime; maxweight ]
