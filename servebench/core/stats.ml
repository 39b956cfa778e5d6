(* Order statistics: latency percentiles within one run, and quartiles
   and spread across runs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [percentile p xs], 0 <= p <= 100, linear between the closest ranks
   (the "inclusive" definition: the minimum is p0, the maximum p100). *)
let percentile p xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a ->
    let h = p /. 100. *. float_of_int (Array.length a - 1) in
    let i = truncate h in
    if i >= Array.length a - 1 then a.(Array.length a - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = percentile 50. xs

(* The three cut points Python's [statistics.quantiles(xs, n=4)] returns
   (its default "exclusive" method), so run-to-run spreads read the same
   here as in any script that checks them. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs
