(* Tests of the benchmark's own verdict logic: percentiles, the serving
   ladder's capacity verdict, fail_share accounting and the independent
   correctness checks. *)

open Perfbench_core
open Matrix

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close ?(tol = 1e-12) a b = Float.abs (a -. b) <= tol

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_quantiles () =
  check "median odd" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "q0 is min" (close (Stats.quantile 0. [ 5.; 2.; 9. ]) 2.);
  check "q1 is max" (close (Stats.quantile 1. [ 5.; 2.; 9. ]) 9.);
  (* 1..101: quantile p sits exactly on 1 + 100p *)
  check "p90 interpolates" (close (Stats.quantile 0.9 (range 101)) 91.);
  check "p99 of 1..1000" (close (Stats.quantile 0.99 (range 1000)) 990.01);
  check "single sample" (close (Stats.quantile 0.99 [ 7. ]) 7.);
  (* 1..8: the middle half is 3..6; outliers beyond it do not move it *)
  check "interquartile mean" (close (Stats.interquartile_mean (range 8)) 4.5);
  check "iqm ignores outliers"
    (close (Stats.interquartile_mean [ 1000.; 3.; 4.; 5.; 6.; 7.; 8.; -1000. ]) 5.5);
  check "iqm of few samples is the mean" (close (Stats.interquartile_mean [ 1.; 2.; 6. ]) 3.);
  check "empty rejected"
    (match Stats.quantile 0.5 [] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_supported_tail () =
  (* a level needs at least ten samples strictly beyond it *)
  check "19 samples: nothing" (Stats.highest_supported 19 = None);
  check "20 samples: median" (Stats.highest_supported 20 = Some 0.5);
  check "99 samples: median" (Stats.highest_supported 99 = Some 0.5);
  check "100 samples: p90" (Stats.highest_supported 100 = Some 0.9);
  check "200 samples: p95" (Stats.highest_supported 200 = Some 0.95);
  check "999 samples: p95" (Stats.highest_supported 999 = Some 0.95);
  check "1000 samples: p99" (Stats.highest_supported 1000 = Some 0.99);
  check "10000 samples: p99.9" (Stats.highest_supported 10000 = Some 0.999);
  check "tail value" (Stats.tail (range 100) = Some (0.9, Stats.quantile 0.9 (range 100)));
  check "label" (Stats.percentile_label 0.999 = "p99_9")

let rung ?(overloaded = 0) ?(failed = 0) rate latencies =
  { Ladder.rate; latencies; overloaded; failed }

let flat n v = List.init n (fun _ -> v)

let test_ladder () =
  let limit_s = 0.1 in
  let fast r = rung r (flat 120 0.02) in
  check "all pass: top rate" (Float.equal (Ladder.max_rps ~limit_s [ fast 10.; fast 20.; fast 40. ]) 40.);
  check "order of rungs irrelevant"
    (Float.equal (Ladder.max_rps ~limit_s [ fast 40.; fast 10.; fast 20. ]) 40.);
  let slow = rung 40. (flat 120 0.5) in
  check "slow tail stops the ladder" (Float.equal (Ladder.max_rps ~limit_s [ fast 10.; fast 20.; slow ]) 20.);
  check "overload stops the ladder"
    (Float.equal (Ladder.max_rps ~limit_s [ fast 10.; rung ~overloaded:1 20. (flat 120 0.02); fast 40. ]) 10.);
  check "failure stops the ladder"
    (Float.equal (Ladder.max_rps ~limit_s [ rung ~failed:1 10. (flat 120 0.02); fast 20. ]) 0.);
  (* latencies climbing with every arrival: the queue is growing *)
  let growing = List.init 120 (fun i -> 0.001 *. float_of_int (i + 1)) in
  check "growing backlog detected" (Ladder.backlog_growing ~limit_s growing);
  check "steady not a backlog" (not (Ladder.backlog_growing ~limit_s (flat 120 0.02)));
  (* a bimodal mix of short and long requests, long ones bunched late
     by chance, is not a trend *)
  let mixed = List.init 120 (fun i -> if i mod 3 = 0 || (i > 80 && i mod 2 = 0) then 0.06 else 0.003) in
  check "service mix not a backlog" (not (Ladder.backlog_growing ~limit_s mixed));
  check "backlog fails the rung" (Ladder.judge ~limit_s (rung 10. growing) = Ladder.Backlog);
  check "too few samples fail" (Ladder.judge ~limit_s (rung 10. (flat 5 0.01)) = Ladder.Too_few);
  check "short rung shows no trend"
    (not (Ladder.backlog_growing ~limit_s (List.init 19 (fun i -> float_of_int (i + 1)))));
  (* the judged level is the highest supported one: a p90 over the
     limit fails even when the median is fine *)
  let tail_heavy = List.init 100 (fun i -> if i mod 5 = 0 then 0.5 else 0.01) in
  check "tail over limit"
    (match Ladder.judge ~limit_s (rung 10. tail_heavy) with
    | Ladder.Too_slow { level; _ } -> Float.equal level 0.9
    | _ -> false)

let test_tally () =
  let t = Tally.create () in
  check "empty share" (Float.equal (Tally.fail_share t) 0.);
  check "empty not correct" (not (Tally.correct t));
  List.iter (Tally.record t) [ Tally.Ok; Tally.Ok; Tally.Ok; Tally.Ok ];
  check "all ok" (Float.equal (Tally.fail_share t) 0. && Tally.correct t);
  List.iter (Tally.record t) [ Tally.Refused; Tally.Deadline; Tally.Failed; Tally.Ok ];
  check "refused, deadline and failed count" (close (Tally.fail_share t) 0.375);
  check "failures alone stay correct" (Tally.correct t);
  Tally.record t Tally.Wrong;
  check "wrong counts" (close (Tally.fail_share t) (4. /. 9.));
  check "wrong is incorrect" (not (Tally.correct t));
  let u = Tally.create () in
  Tally.record u Tally.Ok;
  let m = Tally.merge [ t; u ] in
  check "merge adds up" (m.Tally.attempted = 10 && Tally.bad m = 4 && m.Tally.ok = 6);
  check "merge keeps a wrong result" (not (Tally.correct m))

(* A small SPD matrix with a hand-computed factor. *)
let test_checks () =
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; 5. |] |] in
  let l = Mat.of_arrays [| [| 2.; 0. |]; [| 1.; 2. |] |] in
  check "exact factor" (Float.equal (Check.cholesky_residual ~a ~l) 0.);
  check "probe of exact factor" (Check.cholesky_probe ~seed:1 ~k:4 ~a ~l < 1e-15);
  check "shape" (Check.is_cholesky_shaped l);
  let bad = Mat.of_arrays [| [| 2.; 0. |]; [| 1.; 2.001 |] |] in
  check "wrong factor caught" (Check.cholesky_residual ~a ~l:bad > 1e-4);
  check "probe catches it" (Check.cholesky_probe ~seed:1 ~k:4 ~a ~l:bad > 1e-5);
  let upper = Mat.of_arrays [| [| 2.; 1. |]; [| 0.; 2. |] |] in
  check "upper part rejected" (not (Check.is_cholesky_shaped upper));
  (* LU: A = L·U with L unit lower *)
  let lu_l = Mat.of_arrays [| [| 1.; 0. |]; [| 0.5; 1. |] |] in
  let lu_u = Mat.of_arrays [| [| 4.; 2. |]; [| 0.; 4. |] |] in
  check "lu exact" (Float.equal (Check.lu_residual ~a ~l:lu_l ~u:lu_u) 0.);
  check "lu wrong" (Check.lu_residual ~a ~l:lu_l ~u:l > 1e-2);
  (* QR of a rotation-scaled matrix *)
  let c = 0.6 and s = 0.8 in
  let q = Mat.of_arrays [| [| c; -.s |]; [| s; c |] |] in
  let r = Mat.of_arrays [| [| 2.; 1. |]; [| 0.; 3. |] |] in
  let qr = Mat.of_arrays [| [| 2. *. c; c -. (3. *. s) |]; [| 2. *. s; s +. (3. *. c) |] |] in
  check "qr exact" (Check.qr_residual ~a:qr ~q ~r < 1e-15);
  check "orthogonal" (Check.orthogonality q < 1e-15);
  check "not orthogonal" (Check.orthogonality r > 1.);
  let x = [| 1.; 1. |] in
  check "solve residual" (Float.equal (Check.solve_residual ~a ~x ~b:[| 6.; 7. |]) 0.);
  check "solve residual wrong" (Check.solve_residual ~a ~x ~b:[| 6.; 8. |] > 0.05);
  check "nan is not ok" (not (Check.ok_below 1. Float.nan))

let () =
  test_quantiles ();
  test_supported_tail ();
  test_ladder ();
  test_tally ();
  test_checks ();
  if !failures > 0 then begin
    Printf.printf "%d perfbench check(s) failed\n" !failures;
    exit 1
  end
