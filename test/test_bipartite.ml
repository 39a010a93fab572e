(* Tests for flowsched_bipartite: graphs, Hopcroft-Karp, Hungarian,
   edge coloring, BvN decomposition, b-matching expansion.  Small random
   graphs are checked against exhaustive oracles. *)

open Flowsched_bipartite

(* --- oracles --- *)

(* Exhaustive maximum-matching size by branching on edges. *)
let brute_max_matching_size (g : Bgraph.t) =
  let ne = Bgraph.num_edges g in
  let used_l = Array.make g.Bgraph.nl false and used_r = Array.make g.Bgraph.nr false in
  let rec go i =
    if i = ne then 0
    else begin
      let { Bgraph.u; v } = Bgraph.edge g i in
      let skip = go (i + 1) in
      if used_l.(u) || used_r.(v) then skip
      else begin
        used_l.(u) <- true;
        used_r.(v) <- true;
        let take = 1 + go (i + 1) in
        used_l.(u) <- false;
        used_r.(v) <- false;
        max take skip
      end
    end
  in
  go 0

(* Exhaustive maximum-weight matching by branching on edges. *)
let brute_max_weight (g : Bgraph.t) w =
  let ne = Bgraph.num_edges g in
  let used_l = Array.make g.Bgraph.nl false and used_r = Array.make g.Bgraph.nr false in
  let rec go i =
    if i = ne then 0.
    else begin
      let { Bgraph.u; v } = Bgraph.edge g i in
      let skip = go (i + 1) in
      if used_l.(u) || used_r.(v) then skip
      else begin
        used_l.(u) <- true;
        used_r.(v) <- true;
        let take = w.(i) +. go (i + 1) in
        used_l.(u) <- false;
        used_r.(v) <- false;
        max take skip
      end
    end
  in
  go 0

let random_graph seed ~nl ~nr ~ne =
  let g = Flowsched_util.Prng.create seed in
  let pairs =
    Array.init ne (fun _ ->
        (Flowsched_util.Prng.int g nl, Flowsched_util.Prng.int g nr))
  in
  Bgraph.create ~nl ~nr pairs

(* --- bgraph --- *)

let test_bgraph_create_validates () =
  Alcotest.check_raises "bad endpoint" (Invalid_argument "Bgraph.create: endpoint out of range")
    (fun () -> ignore (Bgraph.create ~nl:2 ~nr:2 [| (0, 2) |]))

let test_bgraph_degrees () =
  let g = Bgraph.create ~nl:3 ~nr:2 [| (0, 0); (0, 1); (1, 0); (0, 0) |] in
  let dl, dr = Bgraph.degrees g in
  Alcotest.(check (array int)) "left degrees" [| 3; 1; 0 |] dl;
  Alcotest.(check (array int)) "right degrees" [| 3; 1 |] dr;
  Alcotest.(check int) "max degree" 3 (Bgraph.max_degree g)

let test_bgraph_adjacency () =
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (1, 1); (0, 1) |] in
  let adj = Bgraph.adj_left g in
  Alcotest.(check (list int)) "adj of 0" [ 0; 2 ] adj.(0);
  Alcotest.(check (list int)) "adj of 1" [ 1 ] adj.(1);
  let radj = Bgraph.adj_right g in
  Alcotest.(check (list int)) "radj of 1" [ 1; 2 ] radj.(1)

let test_bgraph_is_matching () =
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (1, 1); (0, 1) |] in
  Alcotest.(check bool) "disjoint edges" true (Bgraph.is_matching g [ 0; 1 ]);
  Alcotest.(check bool) "shared left vertex" false (Bgraph.is_matching g [ 0; 2 ]);
  Alcotest.(check bool) "empty" true (Bgraph.is_matching g [])

let test_bgraph_is_b_matching () =
  let g = Bgraph.create ~nl:1 ~nr:2 [| (0, 0); (0, 1); (0, 0) |] in
  Alcotest.(check bool) "within caps" true
    (Bgraph.is_b_matching g ~cl:[| 2 |] ~cr:[| 1; 1 |] [ 0; 1 ]);
  Alcotest.(check bool) "left cap exceeded" false
    (Bgraph.is_b_matching g ~cl:[| 2 |] ~cr:[| 2; 1 |] [ 0; 1; 2 ]);
  Alcotest.(check bool) "right cap exceeded" false
    (Bgraph.is_b_matching g ~cl:[| 3 |] ~cr:[| 1; 1 |] [ 0; 2 ])

(* --- Hopcroft-Karp --- *)

let test_hk_perfect () =
  let g = Bgraph.create ~nl:3 ~nr:3 [| (0, 0); (0, 1); (1, 1); (1, 2); (2, 2); (2, 0) |] in
  let m = Matching.max_cardinality g in
  Alcotest.(check int) "perfect" 3 (List.length m);
  Alcotest.(check bool) "valid" true (Bgraph.is_matching g m)

let test_hk_needs_augmenting () =
  (* Greedy gets stuck at 1; the optimum is 2. *)
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (0, 1); (1, 0) |] in
  Alcotest.(check int) "size 2" 2 (Matching.max_cardinality_size g)

let test_hk_empty () =
  let g = Bgraph.create ~nl:3 ~nr:3 [||] in
  Alcotest.(check (list int)) "no edges" [] (Matching.max_cardinality g)

let test_hk_parallel_edges () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0); (0, 0); (0, 0) |] in
  Alcotest.(check int) "one of the parallels" 1 (Matching.max_cardinality_size g)

let prop_hk_matches_brute_force =
  QCheck2.Test.make ~name:"Hopcroft-Karp = brute force" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 6) (int_range 1 6) (int_range 0 12))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let m = Matching.max_cardinality g in
      Bgraph.is_matching g m && List.length m = brute_max_matching_size g)

(* The list-based Hopcroft-Karp the library had before its CSR adjacency,
   kept as an oracle: the CSR version must return the identical edge ids,
   not just a matching of the same size. *)
let reference_max_cardinality (g : Bgraph.t) =
  let nl = g.Bgraph.nl in
  let adj = Bgraph.adj_left g in
  let match_l = Array.make nl (-1) in
  let match_r = Array.make g.Bgraph.nr (-1) in
  let dist = Array.make nl max_int in
  let queue = Queue.create () in
  let edge_v i = (Bgraph.edge g i).Bgraph.v in
  let edge_u i = (Bgraph.edge g i).Bgraph.u in
  let bfs () =
    Queue.clear queue;
    let found = ref false in
    for u = 0 to nl - 1 do
      if match_l.(u) = -1 then begin
        dist.(u) <- 0;
        Queue.add u queue
      end
      else dist.(u) <- max_int
    done;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun e ->
          let v = edge_v e in
          match match_r.(v) with
          | -1 -> found := true
          | e' ->
              let u' = edge_u e' in
              if dist.(u') = max_int then begin
                dist.(u') <- dist.(u) + 1;
                Queue.add u' queue
              end)
        adj.(u)
    done;
    !found
  in
  let rec dfs u =
    let rec try_edges = function
      | [] ->
          dist.(u) <- max_int;
          false
      | e :: rest ->
          let v = edge_v e in
          let ok =
            match match_r.(v) with
            | -1 -> true
            | e' ->
                let u' = edge_u e' in
                dist.(u') = dist.(u) + 1 && dfs u'
          in
          if ok then begin
            match_l.(u) <- e;
            match_r.(v) <- e;
            true
          end
          else try_edges rest
    in
    try_edges adj.(u)
  in
  let continue = ref true in
  while !continue do
    if bfs () then begin
      let progressed = ref false in
      for u = 0 to nl - 1 do
        if match_l.(u) = -1 && dfs u then progressed := true
      done;
      if not !progressed then continue := false
    end
    else continue := false
  done;
  Array.fold_left (fun acc e -> if e >= 0 then e :: acc else acc) [] match_l

(* Multigraphs whose edges touch only the first [hot_l] left and [hot_r]
   right vertices, so parallel edges and isolated vertices are common; the
   sides are drawn independently (nl <> nr) and may have no edges. *)
let gen_multigraph =
  let open QCheck2.Gen in
  let* nl = int_range 0 8 and* nr = int_range 0 8 in
  let* hot_l = int_range 1 (max nl 1) and* hot_r = int_range 1 (max nr 1) in
  let+ pairs =
    if nl = 0 || nr = 0 then return [||]
    else array_size (int_bound 24) (pair (int_bound (hot_l - 1)) (int_bound (hot_r - 1)))
  in
  Bgraph.create ~nl ~nr pairs

let print_graph (g : Bgraph.t) =
  Printf.sprintf "nl=%d nr=%d edges=[%s]" g.Bgraph.nl g.Bgraph.nr
    (String.concat "; "
       (Array.to_list
          (Array.map (fun { Bgraph.u; v } -> Printf.sprintf "(%d,%d)" u v) g.Bgraph.edges)))

let prop_hk_matches_reference =
  QCheck2.Test.make ~name:"CSR Hopcroft-Karp = list-based reference (edge ids)" ~count:500
    ~print:print_graph gen_multigraph (fun g ->
      Matching.max_cardinality g = reference_max_cardinality g)

(* The MaxCard heuristic skips the expansion at unit capacities; this is
   the fact that makes the skip exact. *)
let prop_unit_expansion_is_identity =
  QCheck2.Test.make ~name:"unit-capacity expansion is the identity" ~count:300
    ~print:print_graph gen_multigraph (fun g ->
      let exp =
        Bmatching.expand g ~cl:(Array.make g.Bgraph.nl 1) ~cr:(Array.make g.Bgraph.nr 1)
      in
      let h = exp.Bmatching.graph in
      h.Bgraph.nl = g.Bgraph.nl && h.Bgraph.nr = g.Bgraph.nr && h.Bgraph.edges = g.Bgraph.edges)

(* --- weighted matching --- *)

let test_hungarian_simple () =
  (* picking the heavy diagonal beats the greedy corner *)
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (0, 1); (1, 0) |] in
  let w = [| 10.; 7.; 7. |] in
  let m = Weighted_matching.max_weight g w in
  Alcotest.(check (float 1e-9)) "weight 14" 14. (Weighted_matching.weight_of w m)

let test_hungarian_prefers_unmatched_over_negative () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0) |] in
  let m = Weighted_matching.max_weight g [| -5. |] in
  Alcotest.(check (list int)) "skips negative edge" [] m

let test_hungarian_rectangular () =
  let g = Bgraph.create ~nl:1 ~nr:3 [| (0, 0); (0, 1); (0, 2) |] in
  let m = Weighted_matching.max_weight g [| 1.; 9.; 4. |] in
  Alcotest.(check (list int)) "takes the best" [ 1 ] m

let test_hungarian_parallel_edges () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0); (0, 0) |] in
  let m = Weighted_matching.max_weight g [| 2.; 5. |] in
  Alcotest.(check (list int)) "heavier parallel edge" [ 1 ] m

let prop_hungarian_matches_brute_force =
  QCheck2.Test.make ~name:"Hungarian = brute force" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 5) (int_range 1 5) (int_range 0 10))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let prng = Flowsched_util.Prng.create (seed + 1) in
      let w =
        Array.init ne (fun _ -> float_of_int (Flowsched_util.Prng.int prng 21 - 4))
      in
      let m = Weighted_matching.max_weight g w in
      Bgraph.is_matching g m
      && abs_float (Weighted_matching.weight_of w m -. brute_max_weight g w) < 1e-9)

(* --- edge coloring --- *)

let test_coloring_small () =
  let g = Bgraph.create ~nl:2 ~nr:2 [| (0, 0); (0, 1); (1, 0); (1, 1) |] in
  let colors = Edge_coloring.color g in
  Alcotest.(check bool) "proper" true (Edge_coloring.is_proper g colors);
  let used = Array.fold_left (fun acc c -> max acc (c + 1)) 0 colors in
  Alcotest.(check int) "2 colors for a 2-regular graph" 2 used

let test_coloring_star () =
  let g = Bgraph.create ~nl:1 ~nr:5 (Array.init 5 (fun v -> (0, v))) in
  let colors = Edge_coloring.color g in
  Alcotest.(check bool) "proper" true (Edge_coloring.is_proper g colors)

let test_coloring_parallel () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0); (0, 0); (0, 0) |] in
  let colors = Edge_coloring.color g in
  Alcotest.(check bool) "proper" true (Edge_coloring.is_proper g colors);
  let sorted = Array.copy colors in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "three distinct colors" [| 0; 1; 2 |] sorted

let prop_coloring_proper_and_tight =
  QCheck2.Test.make ~name:"edge coloring proper with <= max-degree colors" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 8) (int_range 1 8) (int_range 0 40))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let colors = Edge_coloring.color g in
      let used = Array.fold_left (fun acc c -> max acc (c + 1)) 0 colors in
      Edge_coloring.is_proper g colors
      && (ne = 0 || used <= Bgraph.max_degree g))

(* --- BvN --- *)

let check_partition g classes =
  let ne = Bgraph.num_edges g in
  let seen = Array.make ne 0 in
  Array.iter (fun cls -> List.iter (fun e -> seen.(e) <- seen.(e) + 1) cls) classes;
  Array.for_all (fun c -> c = 1) seen

let test_bvn_partitions () =
  let g = Bgraph.create ~nl:3 ~nr:3 [| (0, 0); (0, 1); (1, 1); (2, 2); (1, 0) |] in
  let classes = Bvn.decompose g in
  Alcotest.(check bool) "partition" true (check_partition g classes);
  Array.iter
    (fun cls -> Alcotest.(check bool) "class is matching" true (Bgraph.is_matching g cls))
    classes;
  Alcotest.(check int) "max-degree many classes" (Bgraph.max_degree g) (Array.length classes)

let test_bvn_empty () =
  let g = Bgraph.create ~nl:2 ~nr:2 [||] in
  Alcotest.(check int) "no classes" 0 (Array.length (Bvn.decompose g))

let prop_bvn_classes_are_matchings =
  QCheck2.Test.make ~name:"BvN classes partition into matchings" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 7) (int_range 1 7) (int_range 1 30))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let classes = Bvn.decompose g in
      check_partition g classes
      && Array.for_all (fun cls -> Bgraph.is_matching g cls) classes
      && Array.length classes = Bgraph.max_degree g)

(* --- b-matching expansion --- *)

let test_expand_round_robin () =
  let g = Bgraph.create ~nl:1 ~nr:4 [| (0, 0); (0, 1); (0, 2); (0, 3) |] in
  let exp = Bmatching.expand g ~cl:[| 2 |] ~cr:[| 1; 1; 1; 1 |] in
  (* 4 edges over 2 copies: each copy has degree 2 *)
  let dl, _ = Bgraph.degrees exp.Bmatching.graph in
  Alcotest.(check (array int)) "balanced copies" [| 2; 2 |] dl;
  Alcotest.(check int) "max copy degree" 2
    (Bmatching.max_copy_degree g ~cl:[| 2 |] ~cr:[| 1; 1; 1; 1 |])

let test_expand_rejects_zero_capacity () =
  let g = Bgraph.create ~nl:1 ~nr:1 [| (0, 0) |] in
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Bmatching.expand: edge incident to zero-capacity vertex") (fun () ->
      ignore (Bmatching.expand g ~cl:[| 0 |] ~cr:[| 1 |]))

(* --- incremental b-matching --- *)

(* From-scratch oracle by min-cut enumeration.  The maximum number of
   schedulable unit-demand flows is the max flow of source -> u (cap cl(u))
   -> v (cap = live flows on pair (u,v)) -> sink (cap cr(v)); by max-flow /
   min-cut that equals

     min over S <= L, T <= R of
       sum_{u not in S} cl(u) + sum_{u in S, v not in T} pair(u,v)
       + sum_{v in T} cr(v)

   (S and T are the source-side ports).  Enumerating all (S, T) is
   exponential but tiny at test sizes, and — unlike re-running the same
   augmenting-path machinery — shares no code path with the implementation
   under test.  Note the round-robin [Bmatching.expand] reduction is NOT a
   valid oracle here: fixing each edge's copy assignment up front can
   undercount the optimum once capacities exceed 1. *)
let scratch_cardinality ~nl ~nr ~cl ~cr live =
  let pair = Array.make_matrix nl nr 0 in
  List.iter (fun (_, src, dst) -> pair.(src).(dst) <- pair.(src).(dst) + 1) live;
  let best = ref max_int in
  for s = 0 to (1 lsl nl) - 1 do
    for t = 0 to (1 lsl nr) - 1 do
      let cut = ref 0 in
      for u = 0 to nl - 1 do
        if s land (1 lsl u) = 0 then cut := !cut + cl.(u)
        else
          for v = 0 to nr - 1 do
            if t land (1 lsl v) = 0 then cut := !cut + pair.(u).(v)
          done
      done;
      for v = 0 to nr - 1 do
        if t land (1 lsl v) <> 0 then cut := !cut + cr.(v)
      done;
      if !cut < !best then best := !cut
    done
  done;
  !best

let test_incremental_rebind_oldest_first () =
  let t = Bmatching.incremental ~nl:1 ~nr:1 ~cap_in:[| 1 |] ~cap_out:[| 1 |] in
  Bmatching.Incremental.add t ~id:0 ~src:0 ~dst:0;
  Bmatching.Incremental.add t ~id:1 ~src:0 ~dst:0;
  Bmatching.Incremental.add t ~id:2 ~src:0 ~dst:0;
  Alcotest.(check int) "cardinality" 1 (Bmatching.Incremental.cardinality t);
  Alcotest.(check (list int)) "slot 1" [ 0 ] (Bmatching.Incremental.take_matched t);
  Alcotest.(check (list int)) "slot 2" [ 1 ] (Bmatching.Incremental.take_matched t);
  Alcotest.(check (list int)) "slot 3" [ 2 ] (Bmatching.Incremental.take_matched t);
  Alcotest.(check int) "drained" 0 (Bmatching.Incremental.pending t)

let test_incremental_augments_across_pairs () =
  (* f0 = (0,0) binds on arrival; f1 = (1,0) and f2 = (0,1) then each find a
     port occupied.  The optimum is {f1, f2}, reachable only by unbinding f0
     along an augmenting path. *)
  let t = Bmatching.incremental ~nl:2 ~nr:2 ~cap_in:[| 1; 1 |] ~cap_out:[| 1; 1 |] in
  Bmatching.Incremental.add t ~id:0 ~src:0 ~dst:0;
  Bmatching.Incremental.add t ~id:1 ~src:1 ~dst:0;
  Bmatching.Incremental.add t ~id:2 ~src:0 ~dst:1;
  Alcotest.(check int) "cardinality" 2 (Bmatching.Incremental.cardinality t);
  Alcotest.(check (list int)) "matched" [ 2; 1 ] (Bmatching.Incremental.matched t)

let prop_incremental_matches_expand_on_unit_caps =
  QCheck2.Test.make ~name:"incremental = expand+HK on unit capacities" ~count:200
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 6) (int_range 1 6) (int_range 0 20))
    (fun (seed, nl, nr, nf) ->
      let prng = Flowsched_util.Prng.create (seed + 3) in
      let cl = Array.make nl 1 and cr = Array.make nr 1 in
      let t = Bmatching.incremental ~nl ~nr ~cap_in:cl ~cap_out:cr in
      let flows =
        List.init nf (fun id ->
            let src = Flowsched_util.Prng.int prng nl in
            let dst = Flowsched_util.Prng.int prng nr in
            Bmatching.Incremental.add t ~id ~src ~dst;
            (src, dst))
      in
      let expect =
        match flows with
        | [] -> 0
        | _ ->
            let g = Bgraph.create ~nl ~nr (Array.of_list flows) in
            let exp = Bmatching.expand g ~cl ~cr in
            Matching.max_cardinality_size exp.Bmatching.graph
      in
      Bmatching.Incremental.cardinality t = expect)

let prop_incremental_matches_scratch =
  QCheck2.Test.make ~name:"incremental b-matching = from-scratch after churn" ~count:150
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 5) (int_range 1 5) (int_range 1 60))
    (fun (seed, nl, nr, steps) ->
      let prng = Flowsched_util.Prng.create (seed + 11) in
      let cl = Array.init nl (fun _ -> 1 + Flowsched_util.Prng.int prng 3) in
      let cr = Array.init nr (fun _ -> 1 + Flowsched_util.Prng.int prng 3) in
      let t = Bmatching.incremental ~nl ~nr ~cap_in:cl ~cap_out:cr in
      let live = Hashtbl.create 16 in
      let next_id = ref 0 in
      let ok = ref true in
      for _ = 1 to steps do
        let r = Flowsched_util.Prng.int prng 10 in
        if r < 5 || Hashtbl.length live = 0 then begin
          let src = Flowsched_util.Prng.int prng nl in
          let dst = Flowsched_util.Prng.int prng nr in
          let id = !next_id in
          incr next_id;
          Bmatching.Incremental.add t ~id ~src ~dst;
          Hashtbl.add live id (src, dst)
        end
        else if r < 8 then begin
          (* withdraw a uniformly random live flow *)
          let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) live []) in
          let id = List.nth ids (Flowsched_util.Prng.int prng (List.length ids)) in
          Bmatching.Incremental.remove t id;
          Hashtbl.remove live id
        end
        else begin
          (* slot step: the matched set must be live, duplicate-free, and
             capacity-feasible *)
          let ids = Bmatching.Incremental.take_matched t in
          let dl = Array.make nl 0 and dr = Array.make nr 0 in
          List.iter
            (fun id ->
              match Hashtbl.find_opt live id with
              | None -> ok := false
              | Some (s, d) ->
                  dl.(s) <- dl.(s) + 1;
                  dr.(d) <- dr.(d) + 1;
                  Hashtbl.remove live id)
            ids;
          Array.iteri (fun u d -> if d > cl.(u) then ok := false) dl;
          Array.iteri (fun v d -> if d > cr.(v) then ok := false) dr
        end;
        let snapshot = Hashtbl.fold (fun id (s, d) acc -> (id, s, d) :: acc) live [] in
        if Bmatching.Incremental.cardinality t <> scratch_cardinality ~nl ~nr ~cl ~cr snapshot
        then ok := false;
        if Bmatching.Incremental.pending t <> Hashtbl.length live then ok := false
      done;
      !ok)

let prop_b_matching_decomposition =
  QCheck2.Test.make ~name:"b-matching decomposition valid and tight" ~count:300
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 1 6) (int_range 1 6) (int_range 1 25))
    (fun (seed, nl, nr, ne) ->
      let g = random_graph seed ~nl ~nr ~ne in
      let prng = Flowsched_util.Prng.create (seed + 7) in
      let cl = Array.init nl (fun _ -> 1 + Flowsched_util.Prng.int prng 3) in
      let cr = Array.init nr (fun _ -> 1 + Flowsched_util.Prng.int prng 3) in
      let classes = Bvn.decompose_b_matching g ~cl ~cr in
      check_partition g classes
      && Array.for_all (fun cls -> Bgraph.is_b_matching g ~cl ~cr cls) classes
      && Array.length classes <= Bmatching.max_copy_degree g ~cl ~cr)

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_hk_matches_brute_force;
        prop_hungarian_matches_brute_force;
        prop_coloring_proper_and_tight;
        prop_bvn_classes_are_matchings;
        prop_b_matching_decomposition;
        prop_incremental_matches_expand_on_unit_caps;
        prop_incremental_matches_scratch;
        prop_hk_matches_reference;
        prop_unit_expansion_is_identity;
      ]
  in
  Alcotest.run "flowsched_bipartite"
    [
      ( "bgraph",
        [
          Alcotest.test_case "create validates" `Quick test_bgraph_create_validates;
          Alcotest.test_case "degrees" `Quick test_bgraph_degrees;
          Alcotest.test_case "adjacency" `Quick test_bgraph_adjacency;
          Alcotest.test_case "is_matching" `Quick test_bgraph_is_matching;
          Alcotest.test_case "is_b_matching" `Quick test_bgraph_is_b_matching;
        ] );
      ( "hopcroft-karp",
        [
          Alcotest.test_case "perfect matching" `Quick test_hk_perfect;
          Alcotest.test_case "augmenting path needed" `Quick test_hk_needs_augmenting;
          Alcotest.test_case "empty graph" `Quick test_hk_empty;
          Alcotest.test_case "parallel edges" `Quick test_hk_parallel_edges;
        ] );
      ( "hungarian",
        [
          Alcotest.test_case "simple" `Quick test_hungarian_simple;
          Alcotest.test_case "negative edge skipped" `Quick test_hungarian_prefers_unmatched_over_negative;
          Alcotest.test_case "rectangular" `Quick test_hungarian_rectangular;
          Alcotest.test_case "parallel edges" `Quick test_hungarian_parallel_edges;
        ] );
      ( "edge-coloring",
        [
          Alcotest.test_case "2-regular" `Quick test_coloring_small;
          Alcotest.test_case "star" `Quick test_coloring_star;
          Alcotest.test_case "parallel edges" `Quick test_coloring_parallel;
        ] );
      ( "bvn",
        [
          Alcotest.test_case "partitions into matchings" `Quick test_bvn_partitions;
          Alcotest.test_case "empty" `Quick test_bvn_empty;
        ] );
      ( "b-matching",
        [
          Alcotest.test_case "round robin expansion" `Quick test_expand_round_robin;
          Alcotest.test_case "rejects zero capacity" `Quick test_expand_rejects_zero_capacity;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "rebinds oldest first" `Quick test_incremental_rebind_oldest_first;
          Alcotest.test_case "augments across pairs" `Quick test_incremental_augments_across_pairs;
        ] );
      ("properties", props);
    ]
