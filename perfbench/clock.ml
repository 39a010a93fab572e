(* Monotonic time in seconds since program start, from CLOCK_MONOTONIC via
   bechamel's stub; never steps backwards, unlike Unix.gettimeofday. *)

let origin = Monotonic_clock.now ()
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
