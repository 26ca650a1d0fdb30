(* The serving capacity verdict: the highest rate of a fixed ladder at
   which the server keeps its tail latency under a limit, refuses
   nothing, and does not build a backlog. The ladder rates and the
   limit are constants of the benchmark, never derived from the code
   under test, so a faster server is judged against the same load. *)

type rung = {
  rate : float;  (** offered requests per second *)
  latencies : float list;
      (** completed requests' latencies from their due time, in
          arrival order *)
  overloaded : int;  (** [Overloaded] rejections *)
  failed : int;
      (** other refusals, failed or deadline-missed requests, and wrong
          results *)
}

type verdict =
  | Pass of { level : float; tail_s : float }
  | Too_slow of { level : float; tail_s : float }
  | Overloaded of int
  | Failed of int
  | Backlog  (** latencies grew over the rung: the queue is not stable *)
  | Too_few  (** not enough samples to judge any tail percentile *)

(* Under a stable load the latency of late arrivals looks like that of
   early ones; under overload the queue — and so the wait — grows with
   every arrival. The least-squares trend of latency against arrival
   index is robust to the mix of short and long requests; a trend that
   rises by more than half the latency limit over the rung is a growing
   backlog. Fewer than [min_samples] latencies show no trend. *)
let min_samples = 20

let backlog_growing ~limit_s lats =
  let n = List.length lats in
  if n < min_samples then false
  else
    let fn = float_of_int n in
    let mx = (fn -. 1.) /. 2. and my = Stats.mean lats in
    let sxy, sxx =
      List.fold_left
        (fun (sxy, sxx) (i, y) ->
          let dx = float_of_int i -. mx in
          (sxy +. (dx *. (y -. my)), sxx +. (dx *. dx)))
        (0., 0.)
        (List.mapi (fun i y -> (i, y)) lats)
    in
    sxy /. sxx *. (fn -. 1.) > limit_s /. 2.

let judge ~limit_s r =
  if r.failed > 0 then Failed r.failed
  else if r.overloaded > 0 then Overloaded r.overloaded
  else if backlog_growing ~limit_s r.latencies then Backlog
  else
    match Stats.tail r.latencies with
    | None -> Too_few
    | Some (level, tail_s) ->
        if tail_s <= limit_s then Pass { level; tail_s }
        else Too_slow { level; tail_s }

let passes = function
  | Pass _ -> true
  | Too_slow _ | Overloaded _ | Failed _ | Backlog | Too_few -> false

(* Highest rate r such that every rung at or below r passes; 0 when the
   lowest rung already fails. *)
let max_rps ~limit_s rungs =
  let ascending =
    List.sort (fun a b -> Float.compare a.rate b.rate) rungs
  in
  let rec go best = function
    | [] -> best
    | r :: rest -> if passes (judge ~limit_s r) then go r.rate rest else best
  in
  go 0. ascending

let pp_verdict fmt = function
  | Pass { level; tail_s } ->
      Format.fprintf fmt "pass (%s %.4f s)" (Stats.percentile_label level)
        tail_s
  | Too_slow { level; tail_s } ->
      Format.fprintf fmt "too slow (%s %.4f s)" (Stats.percentile_label level)
        tail_s
  | Overloaded n -> Format.fprintf fmt "overloaded (%d rejected)" n
  | Failed n -> Format.fprintf fmt "failed (%d requests)" n
  | Backlog -> Format.fprintf fmt "growing backlog"
  | Too_few -> Format.fprintf fmt "too few samples"
