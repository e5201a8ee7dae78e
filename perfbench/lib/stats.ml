(* Order statistics over timing samples.  Quantiles interpolate
   linearly between closest ranks, so a sample set of one is its own
   median. *)

let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  Array.sort compare a;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

(* The tail is the highest percentile of this ladder (in per-mille, so
   the sample-count test is exact integer arithmetic) that leaves at
   least ten samples beyond it.  Below 100 samples only the median
   qualifies, and there is no tail. *)
let tail_ladder_permille = [ 999; 990; 900 ]

let tail xs =
  let n = List.length xs in
  List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) tail_ladder_permille
  |> Option.map (fun pm ->
         let q = float_of_int pm /. 1000. in
         (100. *. q, quantile xs q))
