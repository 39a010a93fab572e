module Pool = Flowsched_exec.Pool

type t = Inline | Fork

let all = [ Inline; Fork ]
let to_string = function Inline -> "inline" | Fork -> "fork"

let of_string = function
  | "inline" -> Ok Inline
  | "fork" -> Ok Fork
  | "domains" ->
      Error "the domains executor was removed; expected inline|fork (fork runs jobs in parallel)"
  | other -> Error (Printf.sprintf "unknown backend %S (expected inline|fork)" other)

let map ?(backend = Fork) ?jobs ?timeout ?retries ?base_seed ?backoff ?faults
    ?max_jobs_per_worker ?progress ?on_result ~f inputs =
  let jobs = match backend with Inline -> Some 1 | Fork -> jobs in
  Pool.map ?jobs ?timeout ?retries ?base_seed ?backoff ?faults ?max_jobs_per_worker ?progress
    ?on_result ~f inputs
