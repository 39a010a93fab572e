open Flowsched_switch
open Flowsched_util

(* Per-flow endpoint/demand draws, shared between the batch generators below
   and the incremental {!stream} used by the serve loop.  The call order on
   the PRNG is load-bearing: the original batch generators built the spec
   tuple [(src, dst, demand, t)] directly, and OCaml evaluates tuple
   components right to left, so the effective draw order was demand, then
   dst, then src.  Keeping that order here (as explicit sequenced lets)
   means a stream's slot-by-slot prefix is byte-identical to the batch
   instance for the same seed. *)
let draw_uniform ~m ~demand_of g =
  let demand = demand_of g in
  let dst = Prng.int g m in
  let src = Prng.int g m in
  (src, dst, demand)

let poisson_specs g ~m ~rate ~rounds ~demand_of =
  let specs = ref [] in
  for t = 0 to rounds - 1 do
    let k = Sampling.poisson g rate in
    for _ = 1 to k do
      let src, dst, demand = draw_uniform ~m ~demand_of g in
      specs := (src, dst, demand, t) :: !specs
    done
  done;
  List.rev !specs

let unit_demand _g = 1

(* Parameter validation at the generator boundary (shared with the scenario
   zoo): a nonpositive rate, a nonpositive Zipf alpha, a fraction outside
   [0,1], or a max_demand < 1 would silently produce degenerate (empty or
   NaN-weighted) workloads — reject them loudly instead. *)
let check_rate ~who rate =
  if rate <= 0. || Float.is_nan rate then
    invalid_arg (who ^ ": rate must be positive")

let check_alpha ~who alpha =
  if alpha <= 0. || Float.is_nan alpha then
    invalid_arg (who ^ ": alpha must be positive")

let check_fraction ~who fraction =
  if not (fraction >= 0. && fraction <= 1.) then
    invalid_arg (who ^ ": fraction must be within [0, 1]")

let check_max_demand ~who max_demand =
  if max_demand < 1 then invalid_arg (who ^ ": max_demand must be >= 1")

let poisson ~m ~rate ~rounds ~seed =
  if m < 1 || rounds < 1 then invalid_arg "Workload.poisson";
  check_rate ~who:"Workload.poisson" rate;
  let g = Prng.create seed in
  Instance.of_flows ~m ~m':m (poisson_specs g ~m ~rate ~rounds ~demand_of:unit_demand)

let bounded_demand max_demand g = 1 + Prng.int g max_demand

let poisson_with_demands ~m ~rate ~rounds ~max_demand ~seed =
  if m < 1 || rounds < 1 then invalid_arg "Workload.poisson_with_demands";
  check_rate ~who:"Workload.poisson_with_demands" rate;
  check_max_demand ~who:"Workload.poisson_with_demands" max_demand;
  let g = Prng.create seed in
  let specs = poisson_specs g ~m ~rate ~rounds ~demand_of:(bounded_demand max_demand) in
  Instance.of_flows
    ~cap_in:(Array.make m max_demand)
    ~cap_out:(Array.make m max_demand)
    ~m ~m':m specs

(* Sample from a Zipf(alpha) distribution over [0, m) via the inverse CDF
   of precomputed normalized weights. *)
let zipf_sampler g m alpha =
  let weights = Array.init m (fun i -> 1. /. ((float_of_int (i + 1)) ** alpha)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make m 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  fun () ->
    let u = Prng.float g in
    let rec find i = if i >= m - 1 || u <= cdf.(i) then i else find (i + 1) in
    find 0

(* Zipf endpoints: the original built [(sample (), sample (), 1, t)], so the
   dst draw preceded the src draw. *)
let draw_skewed sample _g =
  let dst = sample () in
  let src = sample () in
  (src, dst, 1)

let skewed ~m ~rate ~rounds ?(alpha = 1.0) ~seed () =
  if m < 1 || rounds < 1 then invalid_arg "Workload.skewed";
  check_rate ~who:"Workload.skewed" rate;
  check_alpha ~who:"Workload.skewed" alpha;
  let g = Prng.create seed in
  let sample = zipf_sampler g m alpha in
  let specs = ref [] in
  for t = 0 to rounds - 1 do
    let k = Sampling.poisson g rate in
    for _ = 1 to k do
      let src, dst, demand = draw_skewed sample g in
      specs := (src, dst, demand, t) :: !specs
    done
  done;
  Instance.of_flows ~m ~m':m (List.rev !specs)

(* Incast endpoints: dst decision (one float, plus one int draw on the cold
   path) before the src draw, as in the original tuple build. *)
let draw_hotspot ~m ~fraction g =
  let dst = if Prng.float g < fraction then 0 else Prng.int g m in
  let src = Prng.int g m in
  (src, dst, 1)

let hotspot ~m ~rate ~rounds ?(fraction = 0.5) ~seed () =
  if m < 1 || rounds < 1 then invalid_arg "Workload.hotspot";
  check_rate ~who:"Workload.hotspot" rate;
  check_fraction ~who:"Workload.hotspot" fraction;
  let g = Prng.create seed in
  let specs = ref [] in
  for t = 0 to rounds - 1 do
    let k = Sampling.poisson g rate in
    for _ = 1 to k do
      let src, dst, demand = draw_hotspot ~m ~fraction g in
      specs := (src, dst, demand, t) :: !specs
    done
  done;
  Instance.of_flows ~m ~m':m (List.rev !specs)

let uniform_total ~m ~n ~max_release ~seed =
  if m < 1 || n < 0 || max_release < 0 then invalid_arg "Workload.uniform_total";
  let g = Prng.create seed in
  let specs =
    List.init n (fun _ -> (Prng.int g m, Prng.int g m, 1, Prng.int g (max_release + 1)))
  in
  Instance.of_flows ~m ~m':m specs

(* Unbounded slot-clocked arrival streams for the serve loop. *)

type kind =
  | Uniform
  | Uniform_demands of int
  | Skewed of float
  | Hotspot of float

type stream = {
  g : Prng.t;
  draw : Prng.t -> int * int * int;
  rate : float;
  mutable slot : int;
}

let stream kind ~m ~rate ~seed =
  if m < 1 then invalid_arg "Workload.stream";
  check_rate ~who:"Workload.stream" rate;
  let g = Prng.create seed in
  let draw =
    match kind with
    | Uniform -> draw_uniform ~m ~demand_of:unit_demand
    | Uniform_demands max_demand ->
        check_max_demand ~who:"Workload.stream" max_demand;
        draw_uniform ~m ~demand_of:(bounded_demand max_demand)
    | Skewed alpha ->
        check_alpha ~who:"Workload.stream" alpha;
        let sample = zipf_sampler g m alpha in
        draw_skewed sample
    | Hotspot fraction ->
        check_fraction ~who:"Workload.stream" fraction;
        draw_hotspot ~m ~fraction
  in
  { g; draw; rate; slot = 0 }

let stream_slot s = s.slot

let stream_next s =
  let k = Sampling.poisson s.g s.rate in
  let arrivals = ref [] in
  for _ = 1 to k do
    arrivals := s.draw s.g :: !arrivals
  done;
  s.slot <- s.slot + 1;
  List.rev !arrivals

(* Extensible workload-kind registry.  Higher layers (the scenario zoo)
   register resolvers at module-initialization time, before any worker
   process forks, so the registry is effectively immutable
   while experiments run and identical in every worker — which is what keeps
   sweep artifacts byte-identical across backends. *)

type gen_params = {
  gen_m : int;
  gen_rate : float;
  gen_rounds : int;
  gen_max_demand : int;
  gen_seed : int;
}

let registry :
    (string list * (string -> (gen_params -> Instance.t) option)) list ref =
  ref []

let register_kinds ~names resolve = registry := !registry @ [ (names, resolve) ]

let lookup_kind name = List.find_map (fun (_, resolve) -> resolve name) !registry

let registered_kind_names () = List.concat_map fst !registry
