open Flowsched_switch
open Flowsched_util

type mode =
  | Flows
  | Endpoint of { nodes : int; node_cap : int }
  | Coflow of { groups : int; max_weight : int }

let mode_names = [ "flows"; "endpoint"; "coflow" ]

let mode_of_string s =
  let int_param name v =
    match int_of_string_opt v with
    | Some i when i >= 1 -> Ok i
    | _ -> Error (Printf.sprintf "mode %S: bad parameter %S" name v)
  in
  match String.split_on_char ':' s with
  | [ "flows" ] -> Ok Flows
  | "endpoint" :: rest -> (
      match rest with
      | [] -> Ok (Endpoint { nodes = 2; node_cap = 2 })
      | [ n ] -> Result.map (fun nodes -> Endpoint { nodes; node_cap = 2 }) (int_param s n)
      | [ n; c ] ->
          Result.bind (int_param s n) (fun nodes ->
              Result.map (fun node_cap -> Endpoint { nodes; node_cap }) (int_param s c))
      | _ -> Error (Printf.sprintf "mode %S: too many parameters" s))
  | "coflow" :: rest -> (
      match rest with
      | [] -> Ok (Coflow { groups = 4; max_weight = 4 })
      | [ g ] -> Result.map (fun groups -> Coflow { groups; max_weight = 4 }) (int_param s g)
      | [ g; w ] ->
          Result.bind (int_param s g) (fun groups ->
              Result.map (fun max_weight -> Coflow { groups; max_weight }) (int_param s w))
      | _ -> Error (Printf.sprintf "mode %S: too many parameters" s))
  | _ ->
      Error
        (Printf.sprintf "unknown mode %S (expected %s)" s (String.concat "|" mode_names))

let mode_to_string = function
  | Flows -> "flows"
  | Endpoint { nodes; node_cap } -> Printf.sprintf "endpoint:%d:%d" nodes node_cap
  | Coflow { groups; max_weight } -> Printf.sprintf "coflow:%d:%d" groups max_weight

type cell = { scenario : Scenario.spec; mode : mode; lp : bool }

type entry = { name : string; art : float; mrt : int }

type cell_result = {
  cell : cell;
  flows : int;
  entries : entry list;
  bound_kind : string;  (* "lp" | "lp-relaxed" | "bottleneck" | "none" *)
  bound_avg : float;
  bound_max : float;
  error : string option;
}

(* Wrap a policy so its selection also respects the node capacities: walk
   the selection in the policy's own order and drop any flow that would
   overflow its input- or output-side node.  Dropping flows from a
   port-feasible set keeps it port-feasible, and with node caps scaled to
   admit every flow alone (see [endpoint_for]) any non-empty selection
   keeps at least its first flow, so the engine still makes progress. *)
let node_guard (ep : Endpoint.t) (p : Flowsched_online.Policy.t) =
  {
    Flowsched_online.Policy.name = p.Flowsched_online.Policy.name;
    select =
      (fun ctx ->
        let sel = p.Flowsched_online.Policy.select ctx in
        let load_in = Array.make ep.Endpoint.nodes_in 0 in
        let load_out = Array.make ep.Endpoint.nodes_out 0 in
        List.filter
          (fun i ->
            let f = ctx.Flowsched_online.Policy.queue.(i) in
            let ni = ep.Endpoint.node_in.(f.Flow.src) in
            let no = ep.Endpoint.node_out.(f.Flow.dst) in
            if
              load_in.(ni) + f.Flow.demand <= ep.Endpoint.cap_node_in.(ni)
              && load_out.(no) + f.Flow.demand <= ep.Endpoint.cap_node_out.(no)
            then begin
              load_in.(ni) <- load_in.(ni) + f.Flow.demand;
              load_out.(no) <- load_out.(no) + f.Flow.demand;
              true
            end
            else false)
          sel);
  }

(* The cell's endpoint structure: balanced contiguous blocks, with caps
   raised to the instance's dmax so every flow fits its nodes alone —
   otherwise an oversized flow could never be scheduled and every policy
   would starve. *)
let endpoint_for inst ~nodes ~node_cap =
  let ep =
    Endpoint.blocks ~m:inst.Instance.m ~m':inst.Instance.m'
      ~nodes:(min nodes (min inst.Instance.m inst.Instance.m'))
      ~cap:node_cap
  in
  Endpoint.scale ep ~min_cap:(max 1 (Instance.dmax inst))

(* LP lower bounds, shared by the Flows and Endpoint modes.  Graceful
   degradation as in the sweep: a pivot-budget blowout or solver failure
   yields nan bounds plus the error text instead of aborting the grid. *)
let lp_bounds inst ~max_makespan =
  try
    let horizon = max (Flowsched_core.Art_lp.default_horizon inst) max_makespan in
    let bound = Flowsched_core.Art_lp.lower_bound ~horizon inst in
    let rho = Flowsched_core.Mrt_scheduler.min_fractional_rho inst in
    (bound.Flowsched_core.Art_lp.average, float_of_int rho, None)
  with (Flowsched_lp.Simplex.Iteration_limit _ | Failure _) as e ->
    (nan, nan, Some (Printexc.to_string e))

let schedule_entry inst name sched =
  {
    name;
    art = Schedule.average_response inst sched;
    mrt = Schedule.max_response inst sched;
  }

let run_cell ~policies cell =
  let inst = Scenario.instance cell.scenario in
  let flows = Instance.n inst in
  if flows = 0 then
    {
      cell;
      flows;
      entries =
        List.map
          (fun (p : Flowsched_online.Policy.t) ->
            { name = p.Flowsched_online.Policy.name; art = nan; mrt = 0 })
          policies;
      bound_kind = "none";
      bound_avg = nan;
      bound_max = nan;
      error = None;
    }
  else
    match cell.mode with
    | Flows ->
        let max_makespan = ref 0 in
        let entries =
          List.map
            (fun (p : Flowsched_online.Policy.t) ->
              let r = Flowsched_sim.Engine.run_instance p inst in
              max_makespan := max !max_makespan r.Flowsched_sim.Engine.makespan;
              {
                name = p.Flowsched_online.Policy.name;
                art = Flowsched_sim.Engine.average_response r;
                mrt = Flowsched_sim.Engine.max_response r;
              })
            policies
        in
        let bound_avg, bound_max, error =
          if cell.lp then lp_bounds inst ~max_makespan:!max_makespan else (nan, nan, None)
        in
        let bound_kind = if cell.lp then "lp" else "none" in
        { cell; flows; entries; bound_kind; bound_avg; bound_max; error }
    | Endpoint { nodes; node_cap } ->
        let ep = endpoint_for inst ~nodes ~node_cap in
        let max_makespan = ref 0 in
        let entries =
          List.map
            (fun (p : Flowsched_online.Policy.t) ->
              let r = Flowsched_sim.Engine.run_instance ~endpoint:ep (node_guard ep p) inst in
              max_makespan := max !max_makespan r.Flowsched_sim.Engine.makespan;
              {
                name = p.Flowsched_online.Policy.name;
                art = Flowsched_sim.Engine.average_response r;
                mrt = Flowsched_sim.Engine.max_response r;
              })
            policies
        in
        let entries =
          entries
          @ [ schedule_entry inst "fifo-endpoint" (Flowsched_core.Baselines.fifo_endpoint ep inst) ]
        in
        (* Node caps only remove schedules, so the port-capacity LP is still
           a valid (relaxed) lower bound for this mode. *)
        let bound_avg, bound_max, error =
          if cell.lp then lp_bounds inst ~max_makespan:!max_makespan else (nan, nan, None)
        in
        let bound_kind = if cell.lp then "lp-relaxed" else "none" in
        { cell; flows; entries; bound_kind; bound_avg; bound_max; error }
    | Coflow { groups; max_weight } ->
        let groups = max 1 (min groups flows) in
        let seed = cell.scenario.Scenario.seed in
        let cof = Flowsched_core.Coflow.random_grouping ~seed:(seed + 7919) ~groups inst in
        let wg = Prng.create (seed + 104729) in
        let weights = Array.init groups (fun _ -> 1 + Prng.int wg max_weight) in
        let cof = Flowsched_core.Coflow.with_weights cof weights in
        let coflow_entry name sched =
          {
            name;
            art = Flowsched_core.Coflow.weighted_average_response cof sched;
            mrt = Flowsched_core.Coflow.max_response cof sched;
          }
        in
        let entries =
          [
            coflow_entry "wsebf" (Flowsched_core.Coflow.wsebf cof);
            coflow_entry "sebf" (Flowsched_core.Coflow.sebf cof);
            coflow_entry "flow-fifo" (Flowsched_core.Coflow.flow_fifo cof);
          ]
        in
        {
          cell;
          flows;
          entries;
          bound_kind = "bottleneck";
          bound_avg = Flowsched_core.Coflow.weighted_bottleneck_bound cof;
          bound_max = float_of_int (Flowsched_core.Coflow.max_bottleneck_bound cof);
          error = None;
        }

let describe_cell c =
  Printf.sprintf "matrix %s mode=%s m=%d rate=%.1f T=%d seed=%d lp=%b"
    (Scenario.to_string c.scenario.Scenario.kind)
    (mode_to_string c.mode) c.scenario.Scenario.m c.scenario.Scenario.rate
    c.scenario.Scenario.rounds c.scenario.Scenario.seed c.lp

let run ~policies ?(progress = fun _ -> ()) ?backend ?(jobs = 1) ?timeout ?retries ?faults
    ?on_result cells =
  Flowsched_sim.Experiment.map_cells ?backend ~jobs ?timeout ?retries ?faults ?on_result
    ~describe:describe_cell ~progress ~f:(run_cell ~policies) cells

(* The artifact deliberately excludes wall-clock and jobs metadata so the
   bytes are identical across --jobs and backends (the smoke target diffs
   the files directly). *)
let cell_json r =
  let c = r.cell in
  Json.Obj
    [
      ("workload", Json.Str (Scenario.to_string c.scenario.Scenario.kind));
      ("mode", Json.Str (mode_to_string c.mode));
      ("m", Json.Int c.scenario.Scenario.m);
      ("rate", Json.Float c.scenario.Scenario.rate);
      ("rounds", Json.Int c.scenario.Scenario.rounds);
      ("max_demand", Json.Int c.scenario.Scenario.max_demand);
      ("seed", Json.Int c.scenario.Scenario.seed);
      ("lp", Json.Bool c.lp);
      ("flows", Json.Int r.flows);
      ( "entries",
        Json.Arr
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("policy", Json.Str e.name);
                   ("art", Json.float e.art);
                   ("mrt", Json.Int e.mrt);
                 ])
             r.entries) );
      ("bound_kind", Json.Str r.bound_kind);
      ("bound_avg", Json.float r.bound_avg);
      ("bound_max", Json.float r.bound_max);
      ("error", match r.error with None -> Json.Null | Some e -> Json.Str e);
    ]

let to_json results =
  Json.Obj
    [
      ("schema", Json.Str "flowsched-matrix/1");
      ("cells", Json.Arr (List.map cell_json results));
    ]

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume: canonical cell identity, an exact-inverse decoder *)
(* for cell_json, and the resume wrapper over the generic Checkpoint    *)
(* skeleton — matrix artifacts carry no timing metadata at all, so a    *)
(* resumed artifact is byte-identical with no fields to forgive.        *)
(* ------------------------------------------------------------------ *)

let cell_key c =
  Printf.sprintf "matrix|%s|mode=%s|m=%d|rate=%h|T=%d|dmax=%d|seed=%d|lp=%b"
    (Scenario.to_string c.scenario.Scenario.kind)
    (mode_to_string c.mode) c.scenario.Scenario.m c.scenario.Scenario.rate
    c.scenario.Scenario.rounds c.scenario.Scenario.max_demand c.scenario.Scenario.seed c.lp

exception Decode of string

let req what = function Some v -> v | None -> raise (Decode (what ^ ": missing or mistyped"))
let req_int j name = req name (Option.bind (Json.member name j) Json.to_int_opt)
let req_float j name = req name (Option.bind (Json.member name j) Json.to_float_opt)
let req_str j name = req name (Option.bind (Json.member name j) Json.to_string_opt)
let req_bool j name = req name (Option.bind (Json.member name j) Json.to_bool_opt)
let check what expected got = if expected <> got then raise (Decode ("mismatched " ^ what))

let cell_result_of_json ~cell j =
  try
    check "workload" (Scenario.to_string cell.scenario.Scenario.kind) (req_str j "workload");
    check "mode" (mode_to_string cell.mode) (req_str j "mode");
    check "m" cell.scenario.Scenario.m (req_int j "m");
    check "rate" cell.scenario.Scenario.rate (req_float j "rate");
    check "rounds" cell.scenario.Scenario.rounds (req_int j "rounds");
    check "max_demand" cell.scenario.Scenario.max_demand (req_int j "max_demand");
    check "seed" cell.scenario.Scenario.seed (req_int j "seed");
    check "lp" cell.lp (req_bool j "lp");
    let entries =
      match Json.member "entries" j with
      | Some (Json.Arr es) ->
          List.map
            (fun ej ->
              { name = req_str ej "policy"; art = req_float ej "art"; mrt = req_int ej "mrt" })
            es
      | _ -> raise (Decode "entries: missing or mistyped")
    in
    let error =
      match Json.member "error" j with
      | None | Some Json.Null -> None
      | Some v -> Some (req "error" (Json.to_string_opt v))
    in
    Ok
      {
        cell;
        flows = req_int j "flows";
        entries;
        bound_kind = req_str j "bound_kind";
        bound_avg = req_float j "bound_avg";
        bound_max = req_float j "bound_max";
        error;
      }
  with Decode msg -> Error msg

let run_checkpointed ~policies ?progress ?backend ?jobs ?timeout ?retries ?faults ?on_append
    ckpt cells =
  Flowsched_sim.Checkpoint.resume_run ~kind:"matrix" ~key:cell_key ?on_append
    ~decode:(fun c j -> cell_result_of_json ~cell:c j)
    ~encode:cell_json
    ~run_cells:(fun on_result todo ->
      run ~policies ?progress ?backend ?jobs ?timeout ?retries ?faults ~on_result todo)
    ckpt cells
