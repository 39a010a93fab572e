type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  depth : int;
  args : (string * Flowsched_util.Json.t) list;
}

(* One recording session per process: the enable flag, time origin, span
   buffer, nesting depth, and monotonic clamp are plain globals. *)
let on = ref false
let t0_us = ref 0.
let events : span list ref = ref []
let depth = ref 0
let last_us = ref 0.

(* [Unix.gettimeofday] clamped to be non-decreasing: the stdlib exposes no
   monotonic clock, and a backwards wall-clock step would otherwise produce
   negative span durations. *)
let now_us () =
  let t = Unix.gettimeofday () *. 1e6 in
  if t > !last_us then last_us := t;
  !last_us

let enabled () = !on

let start () =
  events := [];
  depth := 0;
  last_us := 0.;
  t0_us := now_us ();
  on := true

let stop () = on := false

let with_span ?(cat = "flowsched") ?args name f =
  if not !on then f ()
  else begin
    let t_start = now_us () in
    let d = !depth in
    depth := d + 1;
    Fun.protect
      ~finally:(fun () ->
        depth := d;
        let args = match args with None -> [] | Some mk -> mk () in
        let t_end = now_us () in
        events :=
          { name; cat; ts_us = t_start -. !t0_us; dur_us = t_end -. t_start; depth = d; args }
          :: !events)
      f
  end

let spans () = List.stable_sort (fun a b -> Float.compare a.ts_us b.ts_us) (List.rev !events)

let to_json () =
  let module J = Flowsched_util.Json in
  let event s =
    let base =
      [
        ("name", J.Str s.name);
        ("cat", J.Str s.cat);
        ("ph", J.Str "X");
        ("ts", J.float s.ts_us);
        ("dur", J.float s.dur_us);
        ("pid", J.Int 1);
        ("tid", J.Int s.depth);
      ]
    in
    J.Obj (if s.args = [] then base else base @ [ ("args", J.Obj s.args) ])
  in
  J.Obj
    [
      ("traceEvents", J.Arr (List.map event (spans ())));
      ("displayTimeUnit", J.Str "ms");
    ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Flowsched_util.Json.to_string ~pretty:false (to_json ()));
      output_char oc '\n')
