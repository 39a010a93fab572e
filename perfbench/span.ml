(* In-memory span recorder for the traced run.

   Each span keeps a name, start and end (monotonic seconds), the index of
   its parent span (-1 at top level), and the cell or slot id current when
   it opened.  Spans are kept in flat growable arrays, so recording a few
   hundred thousand per-slot spans allocates nothing per span; {!write}
   dumps them as TSV when the benchmark exits. *)

let enabled = ref false
let names : (string, int) Hashtbl.t = Hashtbl.create 32
let name_list = ref [||]

let intern name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length names in
      Hashtbl.add names name i;
      name_list := Array.append !name_list [| name |];
      i

let cap = ref 0
let starts = ref [||]
let stops = ref [||]
let name_of = ref [||]
let parent = ref [||]
let ids = ref [||]
let count = ref 0
let open_span = ref (-1)
let current_id = ref (-1)

let grow () =
  let n = max 4096 (2 * !cap) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 !count;
    b
  in
  starts := extend !starts 0.;
  stops := extend !stops 0.;
  name_of := extend !name_of 0;
  parent := extend !parent 0;
  ids := extend !ids 0;
  cap := n

let start () =
  count := 0;
  open_span := -1;
  current_id := -1;
  enabled := true

let stop () = enabled := false

(* [set_id i] tags the spans opened from now on with cell or slot [i]. *)
let set_id i = current_id := i

let with_span name f =
  if not !enabled then f ()
  else begin
    if !count = !cap then grow ();
    let i = !count in
    incr count;
    !name_of.(i) <- intern name;
    !parent.(i) <- !open_span;
    !ids.(i) <- !current_id;
    let up = !open_span in
    open_span := i;
    let finish () =
      !stops.(i) <- Clock.now ();
      open_span := up
    in
    !starts.(i) <- Clock.now ();
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

type total = { calls : int; total_s : float; self_s : float }

(* Per-name call count, total and self time.  Spans of one thread nest
   without overlap, so the time a span's children cover is the sum of
   their durations. *)
let totals () =
  let n = !count in
  let child = Array.make n 0. in
  for i = 0 to n - 1 do
    let p = !parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (!stops.(i) -. !starts.(i))
  done;
  let acc = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    let name = !name_list.(!name_of.(i)) in
    let d = !stops.(i) -. !starts.(i) in
    let t =
      match Hashtbl.find_opt acc name with
      | Some t -> t
      | None -> { calls = 0; total_s = 0.; self_s = 0. }
    in
    Hashtbl.replace acc name
      { calls = t.calls + 1; total_s = t.total_s +. d; self_s = t.self_s +. (d -. child.(i)) }
  done;
  acc

let total_s tbl name = match Hashtbl.find_opt tbl name with Some t -> t.total_s | None -> 0.
let self_s tbl name = match Hashtbl.find_opt tbl name with Some t -> t.self_s | None -> 0.

let write path =
  let oc = open_out path in
  output_string oc "index\tname\tstart_s\tend_s\tparent\tid\n";
  for i = 0 to !count - 1 do
    Printf.fprintf oc "%d\t%s\t%.9f\t%.9f\t%d\t%d\n" i !name_list.(!name_of.(i)) !starts.(i)
      !stops.(i) !parent.(i) !ids.(i)
  done;
  close_out oc
