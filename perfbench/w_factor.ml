(* factor-large — closed loop, one client: Cholesky.Ft.factor of one
   seeded n=896 SPD matrix in 128-wide tiles over a pool of nproc
   lanes, alternating Enhanced (k=1) with No_ft on the same matrix.

   Large tiles make the BLAS-3 kernels and the driver's post-hoc
   residual check dominate; the server, recovery and hetsim are
   bypassed. Every factor is checked by a seeded multi-vector probe
   (the exact product would cost more than the factorization).

   n=896 rather than 2048: a factorization takes ~0.6 s instead of
   ~6 s, so a 35 s run's median rests on about twenty samples of each
   kind instead of two, and the run-to-run spread of the two-lane
   timings stays well within the bound. The kernels and the residual
   check are all O(n³), so their shares barely move with n. *)

open Perfbench_core
open Matrix
module C = Cholesky

let n = 896
let block = 128

(* Set-up here takes a few tens of milliseconds, so it is repeated
   more often than elsewhere for a steady median. *)
let setup_reps = 15
let probe_vectors = 4

let enhanced = C.Config.make ~block ~scheme:(Abft.Scheme.enhanced ()) ()
let no_ft = C.Config.make ~block ~scheme:Abft.Scheme.No_ft ()

(* Tile-kernel calls of the left-looking driver, per factorization of
   a [grid]×[grid] tile matrix: iteration j issues j SYRK-shaped and
   (grid-1-j)·j GEMM tile products, grid-1-j panel TRSMs and one POTF2.
   Bytes are computed, not measured: each product reads three tiles and
   writes one, a TRSM reads two and writes one, POTF2 reads and writes
   its tile; cache reuse is ignored. *)
let kernel_model ~n ~block =
  let g = float_of_int (n / block) and b = float_of_int block in
  let sum f = List.fold_left (fun a j -> a +. f (float_of_int j)) 0. (List.init (n / block) Fun.id) in
  let gemm_calls = sum (fun j -> (g -. 1. -. j) *. j) in
  let syrk_calls = sum (fun j -> j) in
  let trsm_calls = g *. (g -. 1.) /. 2. in
  let gemm_flops = 2. *. b *. b *. b *. gemm_calls in
  let bytes =
    8. *. b *. b
    *. ((4. *. (gemm_calls +. syrk_calls)) +. (3. *. trsm_calls) +. (2. *. g))
  in
  (gemm_flops, bytes)

(* The cholesky/matrix/parallel/abft layer metrics of [k] traced
   Ft.factor calls whose sinks were folded into [acc], whose reports'
   stats are [stats] and whose mean wall time is [wall], on [lanes]
   lanes. *)
let ft_layers ~n ~block ~lanes ~acc ~stats ~wall =
  let k = float_of_int (List.length stats) in
  let stat f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) /. k in
  let op names = Report.Acc.ops acc names /. k in
  let gemm_s = op [ "gemm"; "gemm-fused" ] in
  let gemm_flops, bytes = kernel_model ~n ~block in
  [
    ("cholesky.residual_s", op [ "residual" ]);
    ("cholesky.residual_share", op [ "residual" ] /. wall);
    ("cholesky.init_s", op [ "init" ]);
    ("cholesky.snapshot_s", op [ "snapshot" ]);
    ("cholesky.rollback_s", op [ "rollback" ]);
    ("cholesky.rollbacks", stat (fun s -> s.C.Ft.rollbacks));
    ("cholesky.restarts", stat (fun s -> s.C.Ft.restarts));
    ("matrix.gemm_s", gemm_s);
    ("matrix.syrk_s", op [ "syrk"; "syrk-fused" ]);
    ("matrix.trsm_s", op [ "trsm"; "trsm-fused" ]);
    ("matrix.potf2_s", op [ "potf2" ]);
    ("matrix.gemm_gflops", gemm_flops /. gemm_s /. 1e9);
    ("matrix.bytes_moved_computed", bytes);
    ("parallel.tasks", Report.Acc.ctr acc "pool.tasks" /. k);
    ("parallel.inline_batches", Report.Acc.ctr acc "pool.inline_batches" /. k);
    ("parallel.busy_ratio", Report.Acc.ops_prefix acc "" /. k /. (wall *. float_of_int lanes));
    ("abft.encode_s", op [ "encode" ]);
    ("abft.compare_s", op [ "compare"; "verify"; "final-verify" ]);
    ("abft.chk_update_s", Report.Acc.ops_prefix acc "chk-" /. k);
    ("abft.verifications", stat (fun s -> s.C.Ft.verifications));
    ("abft.corrections", stat (fun s -> s.C.Ft.corrections));
    ("abft.reconstructions", stat (fun s -> s.C.Ft.reconstructions));
    ("abft.checksum_repairs", stat (fun s -> s.C.Ft.checksum_repairs));
  ]

type state = { a : Mat.t; pool : Parallel.Pool.t }

let lanes () = Domain.recommended_domain_count ()

let make_state ~seed () =
  let a = Inputs.spd ~seed n in
  let pool = Parallel.Pool.create ~domains:(lanes ()) () in
  (* warm-up: one small factorization through the same pool *)
  ignore (C.Ft.factor ~pool enhanced (Inputs.spd ~seed:(seed + 1) (2 * block)));
  { a; pool }

let checked ~seed st (r : C.Ft.report) =
  (match r.C.Ft.outcome with C.Ft.Success -> true | _ -> false)
  && Check.is_cholesky_shaped r.C.Ft.factor
  && Check.ok_below Check.factor_tol
       (Check.cholesky_probe ~seed ~k:probe_vectors ~a:st.a ~l:r.C.Ft.factor)

let run ~seed ~seconds ~trace =
  let st, setup_ts =
    Report.setup ~reps:setup_reps ~teardown:(fun s -> Parallel.Pool.shutdown s.pool) (make_state ~seed)
  in
  let setup_s = Stats.median (Report.raws setup_ts) in
  let tally = Tally.create () in
  let enh = ref [] and base = ref [] and traced = ref [] in
  let acc = Report.Acc.create () in
  let stats = ref [] in
  let reference = ref None in
  (* the Enhanced and No_ft factors of one matrix must agree to the bit:
     ABFT may only observe the factorization, never perturb it *)
  let same_factor (r : C.Ft.report) =
    match !reference with
    | None -> reference := Some r.C.Ft.factor; true
    | Some l -> Mat.equal l r.C.Ft.factor
  in
  Report.closed_loop ~min_ops:2 ~seconds (fun i ->
      let with_obs = trace && i mod 2 = 0 in
      let cfg = if trace || i mod 2 = 0 then enhanced else no_ft in
      let obs = if with_obs then Obs.create () else Obs.null in
      Report.settle ();
      (* The reference brackets the factorization, with samples just
         before and just after, and weighs single-lane and all-lane
         samples alike: the factorization does both kinds of work (its
         residual check runs on one lane, its tile kernels on all), and
         contention on this host slows them differently — a single-lane
         step waits for one core, an all-lane step for whichever core
         the host slows most. Over six runs at n=896 in a noisy hour,
         normalizing by single-lane samples alone left the median
         spread by 0.19–0.21, by all-lane samples alone 0.16–0.18, and
         by the mean of the two kinds' medians 0.02–0.05 (raw:
         0.33–0.36). *)
      let bracket () =
        (Perfbench_ref.Calib.samples 5, Perfbench_ref.Calib.samples ~lanes:(lanes ()) 5)
      in
      let single0, all0 = bracket () in
      let r, dt = Report.time (fun () -> C.Ft.factor ~pool:st.pool ~obs cfg st.a) in
      let single1, all1 = bracket () in
      let reference = (Stats.median (single0 @ single1) +. Stats.median (all0 @ all1)) /. 2. in
      let t = { Report.raw = dt; reference } in
      let ok = checked ~seed:(Inputs.derive ~seed ~stream:1 i) st r && same_factor r in
      Tally.record tally (if ok then Tally.Ok else Tally.Wrong);
      if with_obs then begin
        Report.Acc.add_obs acc obs;
        traced := dt :: !traced;
        stats := r.C.Ft.stats :: !stats
      end
      else if cfg == enhanced then enh := t :: !enh
      else base := t :: !base);
  Parallel.Pool.shutdown st.pool;
  let op_s = Stats.median (Report.raws !enh) in
  let layers =
    if not trace then []
    else
      ft_layers ~n ~block ~lanes:(lanes ()) ~acc ~stats:!stats ~wall:(Stats.mean !traced)
      @ [ ("obs.tracing_overhead_s", Stats.median !traced -. op_s) ]
  in
  let named =
    [
      Report.metric "setup_s" "s" setup_s;
      Report.metric "chol_factor_s" "s" op_s;
    ]
    @ (if trace then [] else [ Report.metric "chol_noft_factor_s" "s" (Stats.median (Report.raws !base)) ])
    @ [ Report.metric ~clock:Report.Derived "fail_share" "ratio" (Tally.fail_share tally) ]
  in
  Printf.printf "%s\n" (Report.gated_line "chol_factor_s (enhanced-k1)" !enh);
  if not trace then Printf.printf "%s\n" (Report.gated_line "chol_noft_factor_s" !base);
  Printf.printf "%s\n" (Report.gated_line "setup_s" setup_ts);
  {
    Report.workload = "factor-large";
    e2e =
      (if trace then []
       else
         [
           Report.metric "setup_s" "s" (Report.gated setup_ts);
           Report.metric "op_s" "s" (Report.gated !enh);
           Report.metric "alt_op_s" "s" (Report.gated !base);
         ]);
    named;
    layers;
    tally;
    lanes = lanes ();
    timings = [ ("setup_s", setup_ts); ("chol_factor_s", !enh); ("chol_noft_factor_s", !base) ];
  }
