open Flowsched_switch
module Policy = Flowsched_online.Policy
module Bmatching = Flowsched_bipartite.Bmatching
module Metrics = Flowsched_obs.Metrics
module Trace = Flowsched_obs.Trace

let c_rounds = Metrics.counter "engine.rounds"
let c_idle_rounds = Metrics.counter "engine.idle_rounds"
let c_flows = Metrics.counter "engine.flows_arrived"
let h_queue_len = Metrics.histogram "engine.queue_len"

type result = {
  flows : Flow.t array;
  schedule : Schedule.t;
  responses : int array;
  makespan : int;
  rounds_idle : int;
}

exception Policy_violation of string
exception Horizon_exceeded of { round : int; pending : int }

(* --- the slot loop and its two cores --- *)

type core = Policy of Policy.t | Incremental

type running = { admit : Flow.t list -> unit; step : int -> Flow.t list; pending : unit -> int }

(* The pending flows live in [pending.(0 .. n-1)], oldest first: admit
   appends, and after each select the chosen indices are marked in
   [chosen] and the survivors compacted in place, so a slot allocates only
   the exact-length queue copy the policy sees.  The queue is a function of
   the pending flows; on zero-churn slots (no arrivals, nothing scheduled
   last slot) it is unchanged, so reuse it instead of copying again — at
   deep backlog the copy dominated slots where the policy was starved
   anyway.  Also returns the pending list, oldest first, which the adaptive
   driver shows its arrival callback. *)
let policy_core ~m ~m' ~cap_in ~cap_out (policy : Policy.t) =
  let pending = ref [||] and n = ref 0 and chosen = ref [||] in
  let queue = ref [||] and stale = ref true in
  let push (f : Flow.t) =
    if !n = Array.length !pending then begin
      let grown = Array.make (max 16 (2 * !n)) f in
      Array.blit !pending 0 grown 0 !n;
      pending := grown;
      chosen := Array.make (Array.length grown) false
    end;
    !pending.(!n) <- f;
    incr n
  in
  let admit batch =
    if batch <> [] then begin
      List.iter push batch;
      stale := true
    end
  in
  let step round =
    if !stale then begin
      queue := Array.sub !pending 0 !n;
      stale := false
    end;
    let queue = !queue in
    match policy.Policy.select { Policy.m; m'; cap_in; cap_out; round; queue } with
    | [] -> []
    | selected ->
        (* [queue.(i)] raises on an index out of range before any mark is
           written, and every marked index is then below [n]. *)
        let scheduled = List.map (fun i -> queue.(i)) selected in
        let pending = !pending and chosen = !chosen in
        let first = List.fold_left min !n selected in
        List.iter (fun i -> chosen.(i) <- true) selected;
        let kept = ref first in
        for i = first to !n - 1 do
          if chosen.(i) then chosen.(i) <- false
          else begin
            pending.(!kept) <- pending.(i);
            incr kept
          end
        done;
        n := !kept;
        stale := true;
        scheduled
  in
  let queued () =
    let rec go i acc = if i < 0 then acc else go (i - 1) (!pending.(i) :: acc) in
    go (!n - 1) []
  in
  ({ admit; step; pending = (fun () -> !n) }, queued)

let incremental_core ~m ~m' ~cap_in ~cap_out =
  let inc = Bmatching.incremental ~nl:m ~nr:m' ~cap_in ~cap_out in
  let flow_of = Hashtbl.create 1024 in
  let admit batch =
    List.iter
      (fun (f : Flow.t) ->
        if f.Flow.demand <> 1 then
          invalid_arg "Server.run: the Incremental core requires unit demands";
        Bmatching.Incremental.add inc ~id:f.Flow.id ~src:f.Flow.src ~dst:f.Flow.dst;
        Hashtbl.add flow_of f.Flow.id f)
      batch
  in
  let step _round =
    List.map
      (fun id ->
        let f = Hashtbl.find flow_of id in
        Hashtbl.remove flow_of id;
        f)
      (Bmatching.Incremental.take_matched inc)
  in
  { admit; step; pending = (fun () -> Bmatching.Incremental.pending inc) }

let start ~m ~m' ~cap_in ~cap_out = function
  | Policy p -> fst (policy_core ~m ~m' ~cap_in ~cap_out p)
  | Incremental -> incremental_core ~m ~m' ~cap_in ~cap_out

type tally = { slots : int; makespan : int; idle_slots : int; peak_pending : int }

let loop core ~live ~arrive ~fold =
  let slot = ref 0 in
  let makespan = ref 0 and idle = ref 0 and peak = ref 0 in
  while live !slot do
    core.admit (arrive !slot);
    let scheduled = core.step !slot in
    let pending = core.pending () in
    (match scheduled with
    | [] -> if pending > 0 then incr idle
    | _ :: _ -> makespan := !slot + 1);
    if pending > !peak then peak := pending;
    fold !slot scheduled;
    incr slot
  done;
  { slots = !slot; makespan = !makespan; idle_slots = !idle; peak_pending = !peak }

(* --- the batch drivers --- *)

(* The policy's [select], counted into the engine.* metrics and checked:
   indices in range and distinct, port capacities respected and, with
   [endpoint], node capacities too.  An index is seen in this call when its
   [seen] entry holds this call's number, so the marks need no clearing. *)
let checked ?endpoint (policy : Policy.t) =
  let seen = ref [||] and call = ref 0 in
  let select (ctx : Policy.context) =
    let queue = ctx.Policy.queue in
    Metrics.incr c_rounds;
    Metrics.observe h_queue_len (float_of_int (Array.length queue));
    let selected = policy.Policy.select ctx in
    if Array.length !seen < Array.length queue then
      seen := Array.make (max (Array.length queue) (2 * Array.length !seen)) 0;
    incr call;
    let seen = !seen and call = !call in
    List.iter
      (fun i ->
        if i < 0 || i >= Array.length queue then
          raise (Policy_violation (Printf.sprintf "index %d out of queue range" i));
        if seen.(i) = call then
          raise (Policy_violation (Printf.sprintf "index %d selected twice" i));
        seen.(i) <- call)
      selected;
    if not (Policy.feasible_selection ctx selected) then
      raise
        (Policy_violation
           (Printf.sprintf "capacity-infeasible selection at round %d" ctx.Policy.round));
    (match endpoint with
    | Some ep when not (Endpoint.feasible ep (List.map (fun i -> queue.(i)) selected)) ->
        raise
          (Policy_violation
             (Printf.sprintf "node-capacity-infeasible selection at round %d"
                ctx.Policy.round))
    | _ -> ());
    if selected = [] && queue <> [||] then Metrics.incr c_idle_rounds;
    selected
  in
  { policy with select }

(* Runs the checked policy until nothing is pending and [more] is false.
   [arrive queued round] is consulted only while [more round]; [flows ()],
   read after the run, is everything that arrived, indexed by id. *)
let drive ?endpoint ?(max_rounds = 100_000) ~m ~m' ~cap_in ~cap_out ~more ~arrive ~flows
    policy =
  Trace.with_span "engine.drive" (fun () ->
      let core, queued = policy_core ~m ~m' ~cap_in ~cap_out (checked ?endpoint policy) in
      let live round =
        let going = more round || core.pending () > 0 in
        if going && round >= max_rounds then
          raise (Horizon_exceeded { round; pending = core.pending () });
        going
      in
      let arrive round =
        let arrivals = if more round then arrive queued round else [] in
        Metrics.incr ~by:(List.length arrivals) c_flows;
        arrivals
      in
      let assignment = ref [] in
      let fold round =
        List.iter (fun (f : Flow.t) -> assignment := (f.Flow.id, round) :: !assignment)
      in
      let tally = loop core ~live ~arrive ~fold in
      let flows = flows () in
      let slots = Array.make (Array.length flows) (-1) in
      List.iter (fun (id, r) -> slots.(id) <- r) !assignment;
      let responses = Array.mapi (fun i r -> r + 1 - flows.(i).Flow.release) slots in
      let schedule = Schedule.make slots in
      { flows; schedule; responses; makespan = tally.makespan; rounds_idle = tally.idle_slots })

let run_instance ?endpoint ?max_rounds policy (inst : Instance.t) =
  let last = Instance.last_release inst in
  let arrivals = Instance.arrivals inst in
  drive ?endpoint ?max_rounds ~m:inst.Instance.m ~m':inst.Instance.m'
    ~cap_in:inst.Instance.cap_in ~cap_out:inst.Instance.cap_out
    ~more:(fun round -> round <= last)
    ~arrive:(fun _ round -> arrivals round)
    ~flows:(fun () -> inst.Instance.flows)
    policy

let average_response r =
  if Array.length r.responses = 0 then nan
  else
    float_of_int (Array.fold_left ( + ) 0 r.responses)
    /. float_of_int (Array.length r.responses)

let max_response r = Array.fold_left max 0 r.responses

let run_adaptive ~m ~m' ~arrivals ~stop_arrivals_after policy =
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
  drive ~m ~m' ~cap_in:(Array.make m 1) ~cap_out:(Array.make m' 1)
    ~more:(fun round -> round < stop_arrivals_after)
    ~arrive
    ~flows:(fun () -> Array.of_list (List.rev !arrived))
    policy
