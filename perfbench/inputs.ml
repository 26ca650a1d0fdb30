(* Seeded input generation. The program under test receives only these
   matrices and vectors; the same seed always yields the same inputs.

   Generation is O(n²): symmetric uniform[-1, 1] off-diagonal entries
   with a diagonal of n + u makes a strictly diagonally dominant — hence
   SPD and well-conditioned — matrix without the O(n³) product that
   [Matrix.Spd.random_spd] spends, so set-up time stays a small,
   steady share of a run. *)

open Matrix

let state seed tag = Random.State.make [| seed; tag; 0x1b5 |]

let uniform st = (2. *. Random.State.float st 1.) -. 1.

(* Symmetric positive definite, order n. *)
let spd ~seed n =
  let st = state seed n in
  let a = Mat.create n n in
  for j = 0 to n - 1 do
    Mat.set a j j (float_of_int n +. Random.State.float st 1.);
    for i = j + 1 to n - 1 do
      let v = uniform st in
      Mat.set a i j v;
      Mat.set a j i v
    done
  done;
  a

(* Non-symmetric, strictly diagonally dominant: what unpivoted LU needs,
   and full-rank for QR. *)
let dominant ~seed n =
  let st = state seed (n + 1) in
  Mat.init n n (fun i j ->
      if i = j then float_of_int n +. Random.State.float st 1. else uniform st)

let vector ~seed n =
  let st = state seed (n + 2) in
  Array.init n (fun _ -> 1. +. Random.State.float st 1.)

(* Per-operation seeds: distinct for every (run seed, stream, index),
   reproducible from the run seed alone. *)
let derive ~seed ~stream i = (seed * 1_000_003) + (stream * 7919) + i
