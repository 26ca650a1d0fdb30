(* The reference kernel: a fixed plain-loop 128×128 matrix product that
   belongs to the benchmark, not to the code under test.

   This host's speed drifts by ±25% over seconds to minutes, for the
   program and for any other code alike. A timing taken next to a
   reference timing and scaled by their ratio cancels that drift:
   [normalize ~raw ~ref] is what [raw] would have read had the
   reference taken [nominal_s]. The library is compiled with fixed
   flags (see the dune file), so a build-wide flag change speeds up the
   program but not the reference, and shows. *)

let n = 128
let a = Array.init (n * n) (fun i -> float_of_int (i mod 7) *. 0.125)
let c = Array.make (n * n) 0.

let kernel c =
  Array.fill c 0 (n * n) 0.;
  for j = 0 to n - 1 do
    for k = 0 to n - 1 do
      let b = a.((j * n) + k) in
      for i = 0 to n - 1 do
        c.((j * n) + i) <- c.((j * n) + i) +. (a.((k * n) + i) *. b)
      done
    done
  done

(* The reference's median on the host the benchmark was written on; a
   scale constant only — every normalized time is relative to it. *)
let nominal_s = 0.005

(* One sample: the kernel's time with [lanes] copies at once, one per
   domain, each into its own output. *)
let sample ?(lanes = 1) () =
  let outputs = List.init (lanes - 1) (fun _ -> Array.make (n * n) 0.) in
  let t0 = Unix.gettimeofday () in
  let helpers = List.map (fun out -> Domain.spawn (fun () -> kernel out)) outputs in
  kernel c;
  List.iter Domain.join helpers;
  Unix.gettimeofday () -. t0

let samples ?lanes k = List.init k (fun _ -> sample ?lanes ())

let normalize ~raw ~ref = raw /. ref *. nominal_s
