(* Order statistics over timing samples.

   Quantiles interpolate linearly between the two nearest order
   statistics (the "inclusive" method: the minimum is quantile 0, the
   maximum quantile 1), so a median of an even sample count is the mean
   of the middle pair. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let quantile p xs =
  if p < 0. || p > 1. then invalid_arg "Stats.quantile: p outside [0, 1]";
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* The reportable tail percentiles, highest first. *)
let tail_levels = [ 0.999; 0.99; 0.95; 0.9; 0.5 ]

(* A percentile p is supported by n samples when at least [beyond]
   samples lie above it: (1 - p)·n >= beyond. *)
let beyond = 10

let supports ~n p = (1. -. p) *. float_of_int n >= float_of_int beyond -. 1e-9

let highest_supported n = List.find_opt (fun p -> supports ~n p) tail_levels

(* The tail a timing is reported with: the highest supported level and
   its value, or [None] when even the median lacks ten samples above
   it. *)
let tail xs =
  match highest_supported (List.length xs) with
  | None -> None
  | Some p -> Some (p, quantile p xs)

let mean xs =
  match xs with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The mean of the middle half: the samples from index n/4 up to but
   not including n - n/4 in sorted order (all of them below 4). *)
let interquartile_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.interquartile_mean: no samples";
  let k = n / 4 in
  mean (Array.to_list (Array.sub a k (n - (2 * k))))

let percentile_label p =
  let s = Printf.sprintf "%g" (p *. 100.) in
  "p" ^ String.map (fun c -> if c = '.' then '_' else c) s
