(* Repository benchmark: one workload per invocation.

     main.exe --workload W --seed N --seconds S --trace 0|1

   W is sweep-lp, offline-lp, serve-steady or serve-burst.  With --trace 0
   the workload runs untraced for S seconds and the end-to-end metrics are
   reported; with --trace 1 a traced run of the same work reports the
   per-layer metrics and writes its spans to .perfbench_out/W.spans.tsv.
   Every output is checked; the last stdout line is the JSON result, and
   the exit code is 1 when any check failed. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload sweep-lp|offline-lp|serve-steady|serve-burst --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        go rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !trace <> 0 && !trace <> 1 then usage ();
  (!workload, !seed, !seconds, !trace = 1)

type workload = {
  setup : int -> unit;
  run : seed:int -> seconds:float -> float * float * float * Report.metric list;
      (** Throughput, p50 and tail latency (ms), and the workload's own metrics. *)
  tail : string;  (** Which percentile [latency_tail_ms] is. *)
  trace : seed:int -> Layers.t -> Report.metric list;
}

let workloads =
  [
    ( "sweep-lp",
      {
        setup = (fun seed -> ignore (Sweep_lp.setup seed));
        run = Sweep_lp.run;
        tail = "p90 cell time";
        trace = Sweep_lp.trace;
      } );
    ( "offline-lp",
      {
        setup = (fun seed -> ignore (Offline_lp.setup seed));
        run = Offline_lp.run;
        tail = "fastest whole pass";
        trace = Offline_lp.trace;
      } );
    ( "serve-steady",
      {
        setup = (fun seed -> ignore (Serve.setup Serve.steady seed));
        run = Serve.run Serve.steady;
        tail = "p99 slot time";
        trace = Serve.trace Serve.steady;
      } );
    ( "serve-burst",
      {
        setup = (fun seed -> ignore (Serve.setup Serve.burst seed));
        run = Serve.run Serve.burst;
        tail = "p99 slot time";
        trace = Serve.trace Serve.burst;
      } );
  ]

(* Set-up is timed [setups] times and the median reported.  A set-up of a
   fraction of a millisecond is timed in a batch of [k] consecutive set-ups
   (k from a first set-up, not counted; a batch takes about [batch_s]), each
   sample the batch time / k.  The heap is compacted before each sample so
   the peak resident set does not depend on when garbage from an earlier
   set-up is collected; not more often, because every forced major
   collection also skews the collector's pacing in the measured run. *)
let setups = 15
let batch_s = 0.02

let setup_time w seed =
  let once () = snd (Clock.timed (fun () -> w.setup seed)) in
  let k = max 1 (min 1000 (int_of_float (batch_s /. Float.max 1e-9 (once ())))) in
  let times =
    Array.init setups (fun _ ->
        Gc.compact ();
        snd (Clock.timed (fun () -> for _ = 1 to k do w.setup seed done)) /. float_of_int k)
  in
  Gc.compact ();
  (Stat.median times, k)

let out_dir = ".perfbench_out"

let main () =
  let name, seed, seconds, traced = parse () in
  let w = match List.assoc_opt name workloads with Some w -> w | None -> usage () in
  let metrics =
    if not traced then begin
      let setup_s, k = setup_time w seed in
      let throughput, p50_ms, tail_ms, named = w.run ~seed ~seconds in
      Report.print_section (Printf.sprintf "%s (seed %d): workload metrics" name seed) named;
      [
        Report.metric "setup_s" "s" setup_s
          ~note:(Printf.sprintf "(median of %d samples of %d set-up(s) each)" setups k);
        Report.metric "peak_rss_mb" "MB" !Report.first_rep_peak_mb
          ~note:"(after set-up and the first repetition)";
        Report.metric "throughput_per_s" "1/s" throughput;
        Report.metric "latency_p50_ms" "ms" p50_ms;
        Report.metric "latency_tail_ms" "ms" tail_ms ~note:("(" ^ w.tail ^ ")");
      ]
    end
    else begin
      let lt = Layers.create () in
      let named = w.trace ~seed lt in
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let path = Filename.concat out_dir (name ^ ".spans.tsv") in
      Span.write path;
      Report.print_section
        (Printf.sprintf "%s (seed %d): traced layer times (%d spans in %s)" name seed
           !Span.count path)
        named;
      Layers.metrics lt
    end
  in
  Report.op "metrics are finite"
    (List.map (fun (m : Report.metric) -> (m.Report.name, Float.is_finite m.Report.value)) metrics);
  Report.print_section (if traced then "per-layer metrics" else "end-to-end metrics") metrics;
  let attempted = max 1 !Report.attempted in
  Printf.printf "  %-34s %14.6g ratio       (%d failed / %d attempted)\n" "fail_ratio"
    (float_of_int !Report.failed /. float_of_int attempted)
    !Report.failed attempted;
  print_endline (Report.result_line metrics);
  exit (if !Report.failed = 0 then 0 else 1)

(* A crash (e.g. a sweep cell failing past its retries) prints no result. *)
let () =
  try main ()
  with e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 1
