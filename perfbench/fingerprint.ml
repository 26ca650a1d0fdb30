(* Host fingerprint recorded with every result, and the refusal to time
   a build whose debug switches change kernel speed. The fields are read
   when the result document is printed, after the workloads ran, so
   ABFT_DOMAINS shows what they left it at: fault-storm sets it to 1 for
   the default pool its LU, QR and PCG kernels run on. *)

let env name = Option.value ~default:"" (Sys.getenv_opt name)

let fields () =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml_version", Sys.ocaml_version);
    ("build_profile", Build_info.profile);
    ("ABFT_DOMAINS", env Parallel.Pool.env_var);
    ("ABFT_RACECHECK", env Parallel.Pool.racecheck_env_var);
    ("ABFT_BOUNDS_CHECK", env "ABFT_BOUNDS_CHECK");
  ]

(* The race detector and the bounds-checked kernels both slow the
   kernels the benchmark times; a run under either is not comparable. *)
let refusal () =
  let probe = Parallel.Pool.create ~domains:1 () in
  let racecheck = Parallel.Pool.racecheck_enabled probe in
  Parallel.Pool.shutdown probe;
  if racecheck then Some "the tile-race detector is on (ABFT_RACECHECK)"
  else if Matrix.Blas3.bounds_checked then
    Some "bounds-checked kernels are on (ABFT_BOUNDS_CHECK)"
  else None
