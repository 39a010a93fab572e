let n_buckets = 64

(* A handle is its cell: [incr] and [observe] are one unsynchronized
   record mutation, cheap enough for the simplex pivot path.  The registry
   maps each name to its cell; [snapshot], [reset], and [absorb] walk it.
   This is plain per-process state — the process runs one domain, and the
   fork pool carries each worker's snapshot diff back to the parent, which
   [absorb]s it. *)

type counter = { mutable c : int }
type gauge = { mutable g : float }
type histogram = { hbuckets : int array; mutable hsum : float; mutable hcount : int }
type cell = Cc of counter | Gc of gauge | Hc of histogram

let registry : (string, cell) Hashtbl.t = Hashtbl.create 64
let kind_name = function Cc _ -> "counter" | Gc _ -> "gauge" | Hc _ -> "histogram"

let register name make wrap unwrap =
  match Hashtbl.find_opt registry name with
  | Some cell -> (
      match unwrap cell with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already registered as a %s" name (kind_name cell)))
  | None ->
      let x = make () in
      Hashtbl.add registry name (wrap x);
      x

let counter name =
  register name (fun () -> { c = 0 }) (fun x -> Cc x) (function Cc x -> Some x | _ -> None)

let gauge name =
  register name (fun () -> { g = 0. }) (fun x -> Gc x) (function Gc x -> Some x | _ -> None)

let histogram name =
  register name
    (fun () -> { hbuckets = Array.make n_buckets 0; hsum = 0.; hcount = 0 })
    (fun x -> Hc x)
    (function Hc x -> Some x | _ -> None)

let incr ?(by = 1) h = h.c <- h.c + by
let counter_value h = h.c
let add_gauge h v = h.g <- h.g +. v
let set_gauge h v = h.g <- v
let gauge_value h = h.g

(* Bucket 0 holds non-positive values; bucket i in 1..63 holds values whose
   [frexp] exponent is i - 32, clamped at both ends.  One bucket per octave. *)
let bucket_of v =
  if v <= 0. || Float.is_nan v then 0
  else
    let _, e = Float.frexp v in
    max 1 (min (n_buckets - 1) (e + 32))

let bucket_upper_bound i = if i <= 0 then 0. else Float.ldexp 1. (i - 32)

let observe h v =
  let b = bucket_of v in
  h.hbuckets.(b) <- h.hbuckets.(b) + 1;
  h.hsum <- h.hsum +. v;
  h.hcount <- h.hcount + 1

let histogram_quantile h q =
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg "Metrics.histogram_quantile: quantile must be in [0, 1]";
  if h.hcount = 0 then nan
  else begin
    (* Smallest bucket whose cumulative occupancy reaches rank ceil(q * n)
       (at least 1, so q = 0 returns the first occupied bucket's bound). *)
    let target = max 1 (int_of_float (ceil (q *. float_of_int h.hcount))) in
    let rec go i acc =
      if i >= n_buckets then bucket_upper_bound (n_buckets - 1)
      else
        let acc = acc + h.hbuckets.(i) in
        if acc >= target then bucket_upper_bound i else go (i + 1) acc
    in
    go 0 0
  end

let histogram_count h = h.hcount
let histogram_sum h = h.hsum

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (int * int) list; sum : float; count : int }

type snapshot = (string * value) list

let value_of = function
  | Cc h -> Counter h.c
  | Gc h -> Gauge h.g
  | Hc h ->
      let buckets = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.hbuckets.(i) <> 0 then buckets := (i, h.hbuckets.(i)) :: !buckets
      done;
      Histogram { buckets = !buckets; sum = h.hsum; count = h.hcount }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, value_of m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Cc h -> h.c <- 0
      | Gc h -> h.g <- 0.
      | Hc h ->
          Array.fill h.hbuckets 0 n_buckets 0;
          h.hsum <- 0.;
          h.hcount <- 0)
    registry

(* Bucket lists are sorted by index; add occupancies bucket-wise. *)
let add_buckets a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | (ia, na) :: ta, (ib, nb) :: tb ->
        if ia < ib then (ia, na) :: go ta b
        else if ia > ib then (ib, nb) :: go a tb
        else (ia, na + nb) :: go ta tb
  in
  List.filter (fun (_, n) -> n <> 0) (go a b)

let combine name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Histogram x, Histogram y ->
      Histogram
        { buckets = add_buckets x.buckets y.buckets; sum = x.sum +. y.sum; count = x.count + y.count }
  | _ -> invalid_arg (Printf.sprintf "Metrics.merge: kind mismatch for %S" name)

let merge a b =
  let rec go a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | ((na, va) as ha) :: ta, ((nb, vb) as hb) :: tb ->
        let c = String.compare na nb in
        if c < 0 then ha :: go ta b
        else if c > 0 then hb :: go a tb
        else (na, combine na va vb) :: go ta tb
  in
  go a b

let negate = function
  | Counter x -> Counter (-x)
  | Gauge x -> Gauge (-.x)
  | Histogram h ->
      Histogram
        {
          buckets = List.map (fun (i, n) -> (i, -n)) h.buckets;
          sum = -.h.sum;
          count = -h.count;
        }

let is_zero = function
  | Counter 0 -> true
  | Gauge g -> g = 0.
  | Histogram { buckets = []; count = 0; _ } -> true
  | _ -> false

let diff after before =
  merge after (List.map (fun (n, v) -> (n, negate v)) before)
  |> List.filter (fun (_, v) -> not (is_zero v))

let absorb snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter x -> incr ~by:x (counter name)
      | Gauge x -> add_gauge (gauge name) x
      | Histogram { buckets; sum; count } ->
          let h = histogram name in
          List.iter
            (fun (i, n) -> if i >= 0 && i < n_buckets then h.hbuckets.(i) <- h.hbuckets.(i) + n)
            buckets;
          h.hsum <- h.hsum +. sum;
          h.hcount <- h.hcount + count)
    snap

let to_json snap =
  let module J = Flowsched_util.Json in
  J.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter x -> J.Int x
           | Gauge x -> J.float x
           | Histogram { buckets; sum; count } ->
               J.Obj
                 [
                   ("count", J.Int count);
                   ("sum", J.float sum);
                   ( "buckets",
                     J.Arr
                       (List.map
                          (fun (i, n) -> J.Arr [ J.float (bucket_upper_bound i); J.Int n ])
                          buckets) );
                 ] ))
       snap)

let to_text snap =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter x -> Buffer.add_string buf (Printf.sprintf "counter %s %d\n" name x)
      | Gauge x -> Buffer.add_string buf (Printf.sprintf "gauge %s %.6g\n" name x)
      | Histogram { sum; count; _ } ->
          let mean = if count = 0 then 0. else sum /. float_of_int count in
          Buffer.add_string buf
            (Printf.sprintf "histogram %s count=%d sum=%.6g mean=%.6g\n" name count sum mean))
    snap;
  Buffer.contents buf
