open Flowsched_switch

type t = { more : int -> bool; pull : int -> (int * int * int) list }

let make ~more ~pull = { more; pull }
let more t slot = t.more slot
let pull t slot = t.pull slot

let of_instance (inst : Instance.t) =
  let last = Instance.last_release inst in
  let arrivals = Instance.arrivals inst in
  {
    more = (fun slot -> slot <= last);
    pull =
      (fun slot ->
        List.map (fun (f : Flow.t) -> (f.Flow.src, f.Flow.dst, f.Flow.demand)) (arrivals slot));
  }

let of_stream stream ~horizon =
  if horizon < 0 then invalid_arg "Source.of_stream: negative horizon";
  {
    more = (fun _slot -> Flowsched_sim.Workload.stream_slot stream < horizon);
    pull = (fun _slot -> Flowsched_sim.Workload.stream_next stream);
  }

let of_scenario spec ~horizon =
  if horizon < 0 then invalid_arg "Source.of_scenario: negative horizon";
  match Flowsched_scenarios.Scenario.stream spec with
  | Error msg -> invalid_arg ("Source.of_scenario: " ^ msg)
  | Ok arrivals ->
      {
        more =
          (fun _slot -> Flowsched_scenarios.Scenario.arrivals_slot arrivals < horizon);
        pull = (fun _slot -> Flowsched_scenarios.Scenario.arrivals_next arrivals);
      }
