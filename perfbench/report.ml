(* Output checks, metrics, and the result line. *)

module Json = Flowsched_util.Json

(* An operation is attempted once and fails if any of its checks fails. *)
let attempted = ref 0
let failed = ref 0

let op what checks =
  incr attempted;
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  if bad <> [] then begin
    incr failed;
    List.iter (fun (name, _) -> Printf.eprintf "check failed: %s: %s\n%!" what name) bad
  end

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let print_section title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.6g %-10s%s\n" m.name m.value m.unit_
        (if m.note = "" then "" else "  " ^ m.note))
    metrics

(* The final stdout line: exactly correct / attempted / failed / metrics. *)
let result_line metrics =
  let attempted = max 1 !attempted in
  Json.to_string ~pretty:false
    (Json.Obj
       [
         ("correct", Json.Bool (!failed = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int !failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
                metrics) );
       ])

(* Peak resident set of this process (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else go ()
      in
      go ())

(* The peak once the first repetition of the measured work has finished.
   Later repetitions repeat the same work, so reading it then keeps the
   figure independent of how many repetitions fit in the time. *)
let first_rep_peak_mb = ref nan

let first_rep_done () =
  if Float.is_nan !first_rep_peak_mb then first_rep_peak_mb := peak_rss_mb ()
