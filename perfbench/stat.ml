(* Order statistics over raw samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an already sorted array. *)
let rank_quantile s q =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Median with the mean of the two middle samples for even counts. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan else if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let sum a = Array.fold_left ( +. ) 0. a

let ratio num den = if den = 0. then 0. else num /. den
