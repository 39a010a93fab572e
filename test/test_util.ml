(* Tests for flowsched_util: PRNG determinism and distributions, sampling,
   statistics, table rendering. *)

open Flowsched_util

let check_float = Alcotest.(check (float 1e-9))

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 1000 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if Prng.bits64 a <> Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "seeds 1 and 2 diverge" true !differs

let test_prng_int_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done;
  (* power-of-two fast path *)
  for _ = 1 to 10_000 do
    let v = Prng.int g 16 in
    Alcotest.(check bool) "in range pow2" true (v >= 0 && v < 16)
  done

let test_prng_int_covers_all_values () =
  let g = Prng.create 3 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    seen.(Prng.int g 7) <- true
  done;
  Alcotest.(check bool) "all residues seen" true (Array.for_all (fun x -> x) seen)

let test_prng_float_range () =
  let g = Prng.create 9 in
  for _ = 1 to 10_000 do
    let v = Prng.float g in
    Alcotest.(check bool) "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_prng_float_mean () =
  let g = Prng.create 11 in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.float g
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_prng_copy_independent () =
  let a = Prng.create 5 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  let va = Prng.bits64 a and vb = Prng.bits64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (Prng.bits64 a);
  (* advancing a must not advance b *)
  let va2 = Prng.bits64 a and vb2 = Prng.bits64 b in
  Alcotest.(check bool) "streams now independent" true (va2 <> vb2 || va2 = vb2)

let test_prng_split_decorrelated () =
  let a = Prng.create 17 in
  let b = Prng.split a in
  let n = 4096 in
  let same = ref 0 in
  for _ = 1 to n do
    if Int64.logand (Prng.bits64 a) 1L = Int64.logand (Prng.bits64 b) 1L then incr same
  done;
  (* parity agreement should be ~ n/2 *)
  Alcotest.(check bool) "split streams decorrelated" true
    (abs (!same - (n / 2)) < n / 8)

let test_prng_per_job_streams_disjoint () =
  (* The per-job splitting contract (see prng.mli and Pool.seed_for): jobs
     derive distinct seeds, and distinct seeds must give streams that never
     coincide.  Silent aliasing of two jobs' generators would be invisible
     to every other test — so draw
     10^5 values from two adjacent jobs' generators and check the output
     sets are disjoint (xoshiro's state is 4x the output width, so even a
     lagged overlap of the underlying sequences would surface here). *)
  let base_seed = 42 in
  let g0 = Prng.create (Flowsched_exec.Pool.seed_for ~base_seed 0) in
  let g1 = Prng.create (Flowsched_exec.Pool.seed_for ~base_seed 1) in
  let n = 100_000 in
  let seen = Hashtbl.create (2 * n) in
  for _ = 1 to n do
    Hashtbl.replace seen (Prng.bits64 g0) ()
  done;
  let overlaps = ref 0 in
  for _ = 1 to n do
    if Hashtbl.mem seen (Prng.bits64 g1) then incr overlaps
  done;
  Alcotest.(check int) "10^5-draw streams disjoint" 0 !overlaps;
  (* Same property for split-derived in-cell streams. *)
  let a = Prng.create 314 in
  let b = Prng.split a in
  Hashtbl.reset seen;
  for _ = 1 to n do
    Hashtbl.replace seen (Prng.bits64 a) ()
  done;
  overlaps := 0;
  for _ = 1 to n do
    if Hashtbl.mem seen (Prng.bits64 b) then incr overlaps
  done;
  Alcotest.(check int) "split streams disjoint" 0 !overlaps

(* --- Sampling --- *)

let test_poisson_zero () =
  let g = Prng.create 1 in
  Alcotest.(check int) "mean 0" 0 (Sampling.poisson g 0.)

let poisson_moments mean seed n =
  let g = Prng.create seed in
  let r = Stats.running_create () in
  for _ = 1 to n do
    Stats.running_add r (float_of_int (Sampling.poisson g mean))
  done;
  (Stats.running_mean r, Stats.running_variance r)

let test_poisson_small_mean () =
  let mu, var = poisson_moments 3.5 21 200_000 in
  Alcotest.(check bool) "mean" true (abs_float (mu -. 3.5) < 0.05);
  Alcotest.(check bool) "variance" true (abs_float (var -. 3.5) < 0.15)

let test_poisson_large_mean () =
  let mu, var = poisson_moments 150. 22 100_000 in
  Alcotest.(check bool) "mean" true (abs_float (mu -. 150.) < 0.5);
  Alcotest.(check bool) "variance" true (abs_float (var -. 150.) < 5.)

let test_poisson_boundary_mean () =
  (* right at the small/large method switch *)
  let mu, _ = poisson_moments 10. 23 100_000 in
  Alcotest.(check bool) "mean at cutover" true (abs_float (mu -. 10.) < 0.1)

let test_exponential_mean () =
  let g = Prng.create 31 in
  let r = Stats.running_create () in
  for _ = 1 to 100_000 do
    Stats.running_add r (Sampling.exponential g 2.)
  done;
  Alcotest.(check bool) "mean 1/rate" true (abs_float (Stats.running_mean r -. 0.5) < 0.01)

let test_geometric () =
  let g = Prng.create 33 in
  Alcotest.(check int) "p=1 is 0" 0 (Sampling.geometric g 1.);
  let r = Stats.running_create () in
  for _ = 1 to 100_000 do
    Stats.running_add r (float_of_int (Sampling.geometric g 0.25))
  done;
  (* mean (1-p)/p = 3 *)
  Alcotest.(check bool) "mean 3" true (abs_float (Stats.running_mean r -. 3.) < 0.1)

let test_uniform_pair_distinct () =
  let g = Prng.create 41 in
  for _ = 1 to 10_000 do
    let a, b = Sampling.uniform_pair_distinct g 5 in
    Alcotest.(check bool) "distinct in range" true
      (a <> b && a >= 0 && a < 5 && b >= 0 && b < 5)
  done

let test_shuffle_is_permutation () =
  let g = Prng.create 43 in
  let arr = Array.init 100 (fun i -> i) in
  Sampling.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let g = Prng.create 47 in
  for _ = 1 to 500 do
    let s = Sampling.sample_without_replacement g 5 12 in
    Alcotest.(check int) "size" 5 (List.length s);
    Alcotest.(check bool) "sorted distinct in range" true
      (let rec ok = function
         | a :: (b :: _ as rest) -> a < b && ok rest
         | [ a ] -> a >= 0 && a < 12
         | [] -> true
       in
       ok s && List.for_all (fun x -> x >= 0 && x < 12) s)
  done;
  Alcotest.(check (list int)) "k = n returns everything"
    [ 0; 1; 2; 3 ]
    (Sampling.sample_without_replacement g 4 4);
  Alcotest.(check (list int)) "k = 0 empty" [] (Sampling.sample_without_replacement g 0 9)

(* --- Stats --- *)

let test_running_stats () =
  let r = Stats.running_create () in
  List.iter (Stats.running_add r) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Stats.running_count r);
  check_float "mean" 5. (Stats.running_mean r);
  check_float "variance" (32. /. 7.) (Stats.running_variance r);
  check_float "min" 2. (Stats.running_min r);
  check_float "max" 9. (Stats.running_max r)

let test_running_empty () =
  let r = Stats.running_create () in
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (Stats.running_mean r))

let test_percentile () =
  let sorted = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "p0" 1. (Stats.percentile sorted 0.);
  check_float "p50" 3. (Stats.percentile sorted 0.5);
  check_float "p100" 5. (Stats.percentile sorted 1.0);
  check_float "p25 interpolates" 2. (Stats.percentile sorted 0.25)

let test_summarize () =
  let s = Stats.summarize [| 5.; 1.; 3.; 2.; 4. |] in
  Alcotest.(check int) "count" 5 s.Stats.count;
  check_float "mean" 3. s.Stats.mean;
  check_float "min" 1. s.Stats.min;
  check_float "max" 5. s.Stats.max;
  check_float "p50" 3. s.Stats.p50

let test_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.; 1.; 2.; 3. |] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all values bucketed" 4 total

(* Percentile edge cases: lock behavior the JSON reporter depends on. *)

let test_percentile_empty_raises () =
  Alcotest.check_raises "empty sample rejected"
    (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] 0.5));
  Alcotest.check_raises "summarize empty rejected"
    (Invalid_argument "Stats.summarize: empty array")
    (fun () -> ignore (Stats.summarize [||]))

let test_percentile_out_of_range_q () =
  let sorted = [| 1.; 2. |] in
  Alcotest.check_raises "q < 0 rejected" (Invalid_argument "Stats.percentile: q out of [0,1]")
    (fun () -> ignore (Stats.percentile sorted (-0.01)));
  Alcotest.check_raises "q > 1 rejected" (Invalid_argument "Stats.percentile: q out of [0,1]")
    (fun () -> ignore (Stats.percentile sorted 1.01));
  Alcotest.check_raises "NaN q rejected" (Invalid_argument "Stats.percentile: q out of [0,1]")
    (fun () -> ignore (Stats.percentile sorted nan))

let test_nan_inputs_raise () =
  (* NaN poisons polymorphic sorts silently; the stats entry points reject
     it loudly instead. *)
  Alcotest.check_raises "summarize NaN" (Invalid_argument "Stats.summarize: NaN input")
    (fun () -> ignore (Stats.summarize [| 1.; nan; 3. |]));
  Alcotest.check_raises "percentile NaN" (Invalid_argument "Stats.percentile: NaN input")
    (fun () -> ignore (Stats.percentile [| 1.; nan |] 0.5));
  (* negative values and infinities are still fine *)
  let s = Stats.summarize [| -2.; 0.; 2. |] in
  check_float "mean with negatives" 0. s.Stats.mean

let test_percentile_single_sample () =
  let sorted = [| 7.5 |] in
  check_float "p0 is the sample" 7.5 (Stats.percentile sorted 0.);
  check_float "p50 is the sample" 7.5 (Stats.percentile sorted 0.5);
  check_float "p100 is the sample" 7.5 (Stats.percentile sorted 1.);
  let s = Stats.summarize [| 7.5 |] in
  Alcotest.(check int) "count" 1 s.Stats.count;
  check_float "mean" 7.5 s.Stats.mean;
  check_float "stddev of singleton is 0" 0. s.Stats.stddev;
  check_float "p50" 7.5 s.Stats.p50;
  check_float "p99" 7.5 s.Stats.p99

let test_percentile_extremes_are_min_max () =
  let sorted = [| -3.; 0.; 1.; 10.; 100. |] in
  check_float "p0 = min" (-3.) (Stats.percentile sorted 0.);
  check_float "p100 = max" 100. (Stats.percentile sorted 1.)

(* --- Json --- *)

let sample_json =
  Json.Obj
    [
      ("schema", Json.Str "test/1");
      ("count", Json.Int 42);
      ("ratio", Json.Float 1.5);
      ("precise", Json.Float 0.1);
      ("skipped", Json.float nan);
      ("ok", Json.Bool true);
      ("empty_list", Json.Arr []);
      ("empty_obj", Json.Obj []);
      ( "cells",
        Json.Arr
          [
            Json.Obj [ ("name", Json.Str "a\"b\\c\nnewline\ttab"); ("v", Json.Int (-7)) ];
            Json.Null;
          ] );
    ]

let test_json_roundtrip () =
  let expect_parses v =
    match Json.parse (Json.to_string v) with
    | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  (* nan serializes as null, so round-trip the normalized form *)
  let normalized =
    match sample_json with
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> (k, if v = Json.float nan then Json.Null else v)) fields)
    | v -> v
  in
  expect_parses normalized;
  (match Json.parse (Json.to_string ~pretty:false normalized) with
  | Ok v' -> Alcotest.(check bool) "compact form round-trips" true (normalized = v')
  | Error e -> Alcotest.failf "compact parse failed: %s" e);
  expect_parses (Json.Arr [ Json.Float 1e-9; Json.Float 3.0; Json.Float (-2.5e10) ])

let test_json_parse_literals () =
  let ok s v =
    match Json.parse s with
    | Ok v' -> Alcotest.(check bool) (Printf.sprintf "parse %s" s) true (v = v')
    | Error e -> Alcotest.failf "parse %s failed: %s" s e
  in
  ok "null" Json.Null;
  ok "true" (Json.Bool true);
  ok " [1, 2.5, -3] " (Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Int (-3) ]);
  ok {|"A\n"|} (Json.Str "A\n");
  ok "1e3" (Json.Float 1000.);
  ok "{}" (Json.Obj [])

let test_json_parse_errors () =
  let fails s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "expected %s to fail" s
    | Error _ -> ()
  in
  fails "";
  fails "{";
  fails "[1,]";
  fails "nul";
  fails {|"unterminated|};
  fails "1.2.3";
  fails "[1] trailing";
  (* \u escapes: lone surrogates are invalid, pairs decode to 4-byte UTF-8 *)
  fails {|"\ud800"|};
  fails {|"\udc00"|};
  fails {|"\ud83dxy"|};
  fails {|"\ud83dA"|};
  Alcotest.(check bool) "surrogate pair decodes to U+1F600" true
    (Json.parse {|"\ud83d\ude00"|} = Ok (Json.Str "\xF0\x9F\x98\x80"))

let test_json_accessors () =
  Alcotest.(check (option int)) "member int" (Some 42)
    (Option.bind (Json.member "count" sample_json) Json.to_int_opt);
  Alcotest.(check (option (float 1e-9))) "int as float" (Some 42.)
    (Option.bind (Json.member "count" sample_json) Json.to_float_opt);
  Alcotest.(check bool) "missing member" true (Json.member "nope" sample_json = None);
  Alcotest.(check int) "to_list on non-array" 0 (List.length (Json.to_list (Json.Int 3)));
  Alcotest.(check (option string)) "string member" (Some "test/1")
    (Option.bind (Json.member "schema" sample_json) Json.to_string_opt)

let test_json_nonfinite_round_trip () =
  (* Artifact contract: non-finite floats serialize as null, and null reads
     back as nan through [to_float_opt], so decode . encode is the identity
     for every float field of a checkpointed cell. *)
  List.iter
    (fun x ->
      let s = Json.to_string ~pretty:false (Json.Arr [ Json.float x ]) in
      Alcotest.(check string) "serializes as null" "[null]" s;
      match Json.parse s with
      | Ok (Json.Arr [ v ]) -> (
          match Json.to_float_opt v with
          | Some f -> Alcotest.(check bool) "reads back as nan" true (Float.is_nan f)
          | None -> Alcotest.fail "null must read back as a nan float")
      | _ -> Alcotest.fail "parse failed")
    [ nan; infinity; neg_infinity ];
  Alcotest.(check bool) "finite floats stay Float" true (Json.float 2.5 = Json.Float 2.5);
  (* And null written back out is still null: a second encode of a decoded
     artifact reproduces the original bytes. *)
  Alcotest.(check string) "null re-encodes as null" "null"
    (Json.to_string ~pretty:false (Json.float nan))

let prop_json_float_roundtrip =
  QCheck2.Test.make ~name:"json float round-trips exactly" ~count:500
    QCheck2.Gen.(float_bound_inclusive 1e12)
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') -> f' = f
      | Ok (Json.Int i) -> float_of_int i = f
      | _ -> false)

(* --- Table --- *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1.00" ];
  Table.add_row t [ "b"; "22.50" ];
  let s = Table.render t in
  Alcotest.(check bool) "mentions rows" true
    (let contains sub =
       let n = String.length s and k = String.length sub in
       let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
       go 0
     in
     contains "alpha" && contains "22.50" && contains "name");
  (* all lines same width for the header block *)
  let lines = String.split_on_char '\n' s in
  Alcotest.(check bool) "non-empty" true (List.length lines >= 3)

let test_table_padding () =
  let t = Table.create [ ("a", Table.Left); ("b", Table.Left) ] in
  Table.add_row t [ "x" ];
  (* short row padded *)
  let s = Table.render t in
  Alcotest.(check bool) "renders" true (String.length s > 0);
  Alcotest.check_raises "long row rejected" (Invalid_argument "Table.add_row: too many cells")
    (fun () -> Table.add_row t [ "1"; "2"; "3" ])

let test_cell_helpers () =
  Alcotest.(check string) "float" "1.23" (Table.cell_float 1.234);
  Alcotest.(check string) "nan" "-" (Table.cell_float nan);
  Alcotest.(check string) "ratio" "2.00x" (Table.cell_ratio 4. 2.);
  Alcotest.(check string) "ratio base 0" "-" (Table.cell_ratio 4. 0.)

(* --- property tests --- *)

let prop_shuffle_preserves_multiset =
  QCheck2.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck2.Gen.(pair small_int (array_size (int_bound 50) small_int))
    (fun (seed, arr) ->
      let g = Prng.create seed in
      let copy = Array.copy arr in
      Sampling.shuffle g copy;
      let a = Array.copy arr and b = Array.copy copy in
      Array.sort compare a;
      Array.sort compare b;
      a = b)

let prop_percentile_monotone =
  QCheck2.Test.make ~name:"percentile monotone in q" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (int_range 2 40) (float_bound_inclusive 100.))
        (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (values, (q1, q2)) ->
      let sorted = Array.copy values in
      Array.sort compare sorted;
      let lo = min q1 q2 and hi = max q1 q2 in
      Stats.percentile sorted lo <= Stats.percentile sorted hi +. 1e-9)

let prop_summary_bounds =
  QCheck2.Test.make ~name:"summary mean within [min,max]" ~count:200
    QCheck2.Gen.(array_size (int_range 1 60) (float_bound_inclusive 1000.))
    (fun values ->
      let s = Stats.summarize values in
      s.Stats.min <= s.Stats.mean +. 1e-9 && s.Stats.mean <= s.Stats.max +. 1e-9)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest
      [
        prop_shuffle_preserves_multiset;
        prop_percentile_monotone;
        prop_summary_bounds;
        prop_json_float_roundtrip;
      ]
  in
  Alcotest.run "flowsched_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int covers all values" `Quick test_prng_int_covers_all_values;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Slow test_prng_float_mean;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
          Alcotest.test_case "split decorrelated" `Quick test_prng_split_decorrelated;
          Alcotest.test_case "per-job streams disjoint" `Quick
            test_prng_per_job_streams_disjoint;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "poisson zero" `Quick test_poisson_zero;
          Alcotest.test_case "poisson small mean" `Slow test_poisson_small_mean;
          Alcotest.test_case "poisson large mean" `Slow test_poisson_large_mean;
          Alcotest.test_case "poisson boundary mean" `Slow test_poisson_boundary_mean;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "geometric" `Slow test_geometric;
          Alcotest.test_case "uniform distinct pair" `Quick test_uniform_pair_distinct;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
        ] );
      ( "stats",
        [
          Alcotest.test_case "running stats" `Quick test_running_stats;
          Alcotest.test_case "running empty" `Quick test_running_empty;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "percentile empty raises" `Quick test_percentile_empty_raises;
          Alcotest.test_case "percentile bad q raises" `Quick test_percentile_out_of_range_q;
          Alcotest.test_case "NaN inputs raise" `Quick test_nan_inputs_raise;
          Alcotest.test_case "percentile single sample" `Quick test_percentile_single_sample;
          Alcotest.test_case "percentile p0/p100" `Quick test_percentile_extremes_are_min_max;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse literals" `Quick test_json_parse_literals;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "non-finite round-trip" `Quick test_json_nonfinite_round_trip;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "padding and errors" `Quick test_table_padding;
          Alcotest.test_case "cell helpers" `Quick test_cell_helpers;
        ] );
      ("properties", qsuite);
    ]
