(* serve-steady and serve-burst: the slot-clocked scheduler service.

   Arrivals are generated in set-up into flat byte arrays and replayed
   through Source.make, so the server receives only the generated inputs
   and the generator's cost stays out of the measured loop.  The slot time
   is the gap between consecutive Source.pull calls.

   The stream is served whole once, then timed in segments: each segment
   is a separate Server.run that starts empty, and the run cycles over the
   segments until the time is up.  Every repetition of a segment serves the
   same arrivals and does the same work, and a disturbance from outside the
   process only ever slows it down, so each piece of a segment (its
   start-up, the gap before each slot, its drain) keeps its smallest time
   over the segment's repetitions.  Throughput is the flows served over the
   sum of those pieces, and the slot-time percentiles are taken over the
   gaps.  The stream is kept short enough for every segment to be repeated
   dozens of times in a run, so each piece gets many chances to run while
   the rest of a shared host is quiet. *)

module Server = Flowsched_serve.Server
module Source = Flowsched_serve.Source
module Workload = Flowsched_sim.Workload
module Zoo = Flowsched_scenarios.Zoo

type spec = {
  label : string;
  m : int;
  slots : int;
  segment : int;  (** Slots per timed segment; divides [slots]. *)
  mean_flows : float;  (** Mean arrivals per slot, to size the arrival buffer. *)
  core : Server.core;
  stream : seed:int -> unit -> (int * int * int) list;  (** Next slot's arrivals. *)
}

let steady =
  {
    label = "uniform m=16 rate=14, Incremental core";
    m = 16;
    slots = 25_000;
    segment = 5_000;
    mean_flows = 14.0;
    core = Server.Incremental;
    stream =
      (fun ~seed ->
        let s = Workload.stream Workload.Uniform ~m:16 ~rate:14.0 ~seed in
        fun () -> Workload.stream_next s);
  }

let burst =
  {
    label = "bursty m=8 rate=3 x4 for 50 of 200 slots, Policy maxcard core";
    m = 8;
    slots = 40_000;
    segment = 10_000;
    mean_flows = 5.25;
    core = Server.Policy Flowsched_online.Heuristics.maxcard;
    stream =
      (fun ~seed ->
        let s = Zoo.bursty_stream ~m:8 ~rate:3.0 ~burst:4.0 ~period:200 ~duty:0.25 ~seed in
        fun () -> Zoo.stream_next s);
  }

(* The arrivals of slot s are flows j in [offsets.(s), offsets.(s+1)); flow
   j is bytes 3j, 3j+1, 3j+2 of [flows]: src, dst, demand. *)
type arrivals = { offsets : int array; flows : Bytes.t; total : int }

let setup spec seed =
  let next = spec.stream ~seed in
  let expected = float_of_int spec.slots *. ((1.1 *. spec.mean_flows) +. 2.) in
  let buf = Buffer.create (3 * int_of_float expected) in
  let offsets = Array.make (spec.slots + 1) 0 in
  for s = 0 to spec.slots - 1 do
    List.iter
      (fun (src, dst, d) ->
        Buffer.add_uint8 buf src;
        Buffer.add_uint8 buf dst;
        Buffer.add_uint8 buf d)
      (next ());
    offsets.(s + 1) <- Buffer.length buf / 3
  done;
  { offsets; flows = Buffer.to_bytes buf; total = offsets.(spec.slots) }

let batch a s =
  let rec go j acc =
    if j < a.offsets.(s) then acc
    else
      go (j - 1)
        ((Bytes.get_uint8 a.flows (3 * j), Bytes.get_uint8 a.flows ((3 * j) + 1),
          Bytes.get_uint8 a.flows ((3 * j) + 2))
        :: acc)
  in
  go (a.offsets.(s + 1) - 1) []

(* The server sees slots [base, base + slots) of the arrivals as its own
   slots 0, 1, ... *)
let source ?(base = 0) a ~slots ~on_pull =
  Source.make ~more:(fun s -> s < slots) ~pull:(fun s -> on_pull s (fun () -> batch a (base + s)))

let config spec = Server.config ~m:spec.m ~m':spec.m ()

let check_outcome ?(base = 0) ?slots spec a (o : Server.outcome) =
  let slots = Option.value slots ~default:spec.slots in
  Report.op spec.label
    [
      ("completed = arrived", o.Server.completed = o.Server.arrived);
      ("arrived = generated", o.Server.arrived = a.offsets.(base + slots) - a.offsets.(base));
      ("final_pending = 0", o.Server.final_pending = 0);
      ("not interrupted", not o.Server.interrupted);
    ]

(* One untraced run of [slots] slots from [base].  [stamps] has [slots + 2]
   entries: when the run started, when each slot was pulled, and when the
   run ended; so piece [p] of the run, [stamps.(p + 1) - stamps.(p)], is the
   start-up for [p = 0], the gap before slot [p] for [0 < p < slots], and
   the drain after the last pull for [p = slots]. *)
let timed_run ?base ~slots spec a stamps =
  let on_pull s f =
    stamps.(s + 1) <- Clock.now ();
    f ()
  in
  stamps.(0) <- Clock.now ();
  let outcome = Server.run (config spec) spec.core (source ?base a ~slots ~on_pull) in
  stamps.(slots + 1) <- Clock.now ();
  outcome

let wall_of stamps = stamps.(Array.length stamps - 1) -. stamps.(0)

let run spec ~seed ~seconds =
  let a = setup spec seed in
  (* The whole stream in one Server.run warms up, is checked like the
     segments, and sets the peak resident set. *)
  Gc.compact ();
  check_outcome spec a (timed_run ~slots:spec.slots spec a (Array.make (spec.slots + 2) 0.));
  Report.first_rep_done ();
  let len = spec.segment in
  let segments = spec.slots / len in
  let stamps = Array.make (len + 2) 0. in
  (* Each piece of each segment, its smallest over the repetitions. *)
  let best = Array.init segments (fun _ -> Array.make (len + 1) infinity) in
  let first = Array.make segments None and reps = Array.make segments 0 in
  let t_end = Clock.now () +. seconds in
  let k = ref 0 in
  while !k < segments || Clock.now () < t_end do
    let i = !k mod segments in
    (* Start each repetition from a compacted heap, so the collector does
       the same work at the same points in every repetition. *)
    Gc.compact ();
    let base = i * len in
    let outcome = timed_run ~base ~slots:len spec a stamps in
    for p = 0 to len do
      best.(i).(p) <- Float.min best.(i).(p) (stamps.(p + 1) -. stamps.(p))
    done;
    (match first.(i) with
    | None ->
        check_outcome ~base ~slots:len spec a outcome;
        first.(i) <- Some outcome
    | Some o -> Report.op "repeated segment has the same outcome" [ ("identical", o = outcome) ]);
    reps.(i) <- reps.(i) + 1;
    incr k
  done;
  let completed =
    Array.fold_left (fun n o -> n + (Option.get o).Server.completed) 0 first
  in
  let serving_s = Array.fold_left (fun t b -> t +. Stat.sum b) 0. best in
  let flows_per_s = float_of_int completed /. serving_s in
  let gaps = Array.concat (Array.to_list (Array.map (fun b -> Array.sub b 1 (len - 1)) best)) in
  let q = Stat.rank_quantile (Stat.sorted (Array.map (fun g -> g *. 1e6) gaps)) in
  let p50 = q 0.5 and p99 = q 0.99 in
  let min_reps = Array.fold_left min max_int reps in
  let note =
    Printf.sprintf "(n=%d slot gaps, each the smallest of >= %d repetitions)" (Array.length gaps)
      min_reps
  in
  let named =
    [
      Report.metric "serve_flows_per_s" "1/s" flows_per_s
        ~note:
          (Printf.sprintf "(%d flows / %.4f s, the sum of every piece's smallest of >= %d)"
             completed serving_s min_reps);
      Report.metric "serve_slot_p50_us" "us" p50 ~note;
      Report.metric "serve_slot_p99_us" "us" p99 ~note;
      Report.metric "serve_slot_p999_us" "us" (q 0.999) ~note;
    ]
  in
  (flows_per_s, p50 /. 1e3, p99 /. 1e3, named)

let trace spec ~seed (lt : Layers.t) =
  let a = setup spec seed in
  let stamps = Array.make (spec.slots + 2) 0. in
  let untraced = timed_run ~slots:spec.slots spec a stamps in
  lt.Layers.untraced_wall_s <- wall_of stamps;
  check_outcome spec a untraced;
  let core =
    match spec.core with
    | Server.Policy p -> Server.Policy (Layers.traced_policy lt p)
    | Server.Incremental -> Server.Incremental
  in
  let on_pull s f =
    Span.set_id s;
    Span.with_span "source.pull" f
  in
  let traced =
    Layers.trace lt (fun () ->
        Span.with_span "server.run" (fun () ->
            Server.run (config spec) core (source a ~slots:spec.slots ~on_pull)))
  in
  Span.set_id (-1);
  lt.Layers.ops <- traced.Server.completed;
  Report.op "traced run has the untraced outcome" [ ("identical", traced = untraced) ];
  let total name = Span.total_s lt.Layers.spans name in
  [
    Report.metric "policy.select_s" "s" (total "policy.select");
    Report.metric "source.pull_s" "s" (total "source.pull");
    Report.metric "server.self_s" "s" (Span.self_s lt.Layers.spans "server.run");
  ]
