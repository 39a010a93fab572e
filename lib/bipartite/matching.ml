(* Hopcroft-Karp.  match_l.(u) / match_r.(v) hold the matched *edge id* or
   -1; working through edge ids keeps parallel edges distinguishable.  The
   left adjacency is CSR: the edges of u are adj.(start.(u) .. start.(u+1)-1)
   in increasing edge id, the order every scan visits them in. *)

let run (g : Bgraph.t) =
  let nl = g.Bgraph.nl and edges = g.Bgraph.edges in
  let ne = Array.length edges in
  let start = Array.make (nl + 1) 0 in
  Array.iter (fun { Bgraph.u; _ } -> start.(u + 1) <- start.(u + 1) + 1) edges;
  for u = 1 to nl do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let adj = Array.make ne 0 and fill = Array.sub start 0 nl in
  Array.iteri
    (fun e { Bgraph.u; _ } ->
      adj.(fill.(u)) <- e;
      fill.(u) <- fill.(u) + 1)
    edges;
  let match_l = Array.make nl (-1) in
  let match_r = Array.make g.Bgraph.nr (-1) in
  let dist = Array.make nl max_int in
  (* Each left vertex enters the BFS queue at most once per phase. *)
  let queue = Array.make nl 0 in
  (* BFS layers from free left vertices. *)
  let bfs () =
    let head = ref 0 and tail = ref 0 in
    let found = ref false in
    for u = 0 to nl - 1 do
      if match_l.(u) = -1 then begin
        dist.(u) <- 0;
        queue.(!tail) <- u;
        incr tail
      end
      else dist.(u) <- max_int
    done;
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for k = start.(u) to start.(u + 1) - 1 do
        match match_r.(edges.(adj.(k)).Bgraph.v) with
        | -1 -> found := true
        | e' ->
            let u' = edges.(e').Bgraph.u in
            if dist.(u') = max_int then begin
              dist.(u') <- dist.(u) + 1;
              queue.(!tail) <- u';
              incr tail
            end
      done
    done;
    !found
  in
  let rec dfs u = try_edges u start.(u)
  and try_edges u k =
    if k = start.(u + 1) then begin
      dist.(u) <- max_int;
      false
    end
    else
      let e = adj.(k) in
      let v = edges.(e).Bgraph.v in
      let ok =
        match match_r.(v) with
        | -1 -> true
        | e' ->
            let u' = edges.(e').Bgraph.u in
            dist.(u') = dist.(u) + 1 && dfs u'
      in
      if ok then begin
        match_l.(u) <- e;
        match_r.(v) <- e;
        true
      end
      else try_edges u (k + 1)
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
  match_l

let max_cardinality g =
  let match_l = run g in
  Array.fold_left (fun acc e -> if e >= 0 then e :: acc else acc) [] match_l

let max_cardinality_size g =
  let match_l = run g in
  Array.fold_left (fun acc e -> if e >= 0 then acc + 1 else acc) 0 match_l
