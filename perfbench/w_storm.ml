(* fault-storm — closed loop, one client, one lane, n=512 in 64-wide
   tiles. Operations rotate through: Cholesky Enhanced (k=1) under the
   Campaign families mixed, burst, storage-heavy and checksum-storm with
   snapshots every two iterations; Ft_lu.factor and Ft_qr.factor under
   seeded random fault plans; and a block-Jacobi-preconditioned PCG
   solve under a solver-storm plan.

   This is where the ABFT layer locates, corrects, reconstructs, rolls
   back and restarts instead of only comparing, and the only workload
   that drives lu, qr and the PCG recovery ladder. Every result is
   checked exactly: ‖LLᵀ−A‖, ‖LU−A‖, ‖QR−A‖ and ‖QᵀQ−I‖, and the PCG
   true residual. *)

open Perfbench_core
open Matrix
module C = Cholesky

let n = 512
let block = 64
let grid = n / block
let faults = 3
(* Input systems per run; a PCG slot solves each once. *)
let inputs = 16
let families = [| Campaign.Mixed; Campaign.Burst; Campaign.Storage_heavy; Campaign.Checksum_storm |]

(* Share of a traced run's seconds spent on the server pass. *)
let serve_share = 0.2

let chol_cfg =
  C.Config.make ~block ~scheme:(Abft.Scheme.enhanced ()) ~snapshot_interval:2
    ~max_rollbacks:2 ~max_restarts:3 ()

let cg_cfg =
  Solvers.Cg.config ~rtol:1e-9 ~verify_interval:4 ~checkpoint_interval:4
    ~max_rollbacks:2 ~max_restarts:3 ()

type state = {
  pool : Parallel.Pool.t;
  spd : Mat.t array;
  dominant : Mat.t array;
  rhs : Vec.t array;
  precond : Solvers.Cg.precond array;
}

let make_state ~seed () =
  (* Ft_lu, Ft_qr and the PCG kernels run on the process-wide default
     pool, which ABFT_DOMAINS sizes when it is first created *)
  Unix.putenv Parallel.Pool.env_var "1";
  let spd = Array.init inputs (fun i -> Inputs.spd ~seed:(Inputs.derive ~seed ~stream:10 i) n) in
  let dominant =
    Array.init inputs (fun i -> Inputs.dominant ~seed:(Inputs.derive ~seed ~stream:11 i) n)
  in
  let rhs = Array.init inputs (fun i -> Inputs.vector ~seed:(Inputs.derive ~seed ~stream:12 i) n) in
  let precond = Array.map (Solvers.Cg.block_jacobi ~block) spd in
  let pool = Parallel.Pool.create ~domains:1 () in
  (* warm-up: the lightest clean operations that touch every kernel
     family (the QR projections run the same GEMM) *)
  ignore (C.Ft.factor ~pool chol_cfg spd.(0));
  ignore (Ftlu.Ft_lu.factor ~block dominant.(0));
  ignore (Solvers.Cg.solve ~precond:precond.(0) cg_cfg spd.(0) rhs.(0));
  { pool; spd; dominant; rhs; precond }

(* QR fault windows differ from Cholesky's, so its plans are drawn
   here: storage corruption of an already factored Q panel before a
   later iteration re-reads it, and wrong values in the block
   projection of panel j by an earlier panel k — both covered by
   Enhanced.

   Both are offsets of 1 to 101. A mantissa bit flip in a Q element,
   which is ~1e-3 here, can change it by less than the checksum
   comparison's floor (Abft.Verify.default_tol, 1e-8 times the
   checksum's magnitude); no checksum can see such a change, Ft_qr
   rightly reports success, and yet ‖QᵀQ − I‖ grows to ~1e-8,
   past this benchmark's 1e-9 check (seed 16, bit 41, ‖QᵀQ − I‖ =
   1.05e-8). An offset of at least 1 lies far above the floor. *)
let qr_plan ~seed =
  let st = Random.State.make [| seed; 0x9e |] in
  List.init 2 (fun _ ->
      let j = 2 + Random.State.int st (grid - 2) in
      let k = Random.State.int st (j - 1) in
      let element = (Random.State.int st n, Random.State.int st block) in
      let delta = 1. +. Random.State.float st 100. in
      if Random.State.bool st then
        {
          (Fault.storage_error ~iteration:j ~block:(k, 0) ~element ()) with
          Fault.kind = Fault.Value_offset { delta };
        }
      else
        Fault.computing_error ~delta ~iteration:j ~op:Fault.Gemm ~block:(j, k) ~element ())

type kind = Chol | Lu | Qr | Pcg

(* Cholesky, the paper's algorithm, takes every other slot, so its
   median rests on three times the samples of LU's or QR's. *)
let kinds = [| Chol; Lu; Chol; Qr; Chol; Pcg |]

type sample = {
  kind : kind;
  t : Report.timed;  (** the operation, with its reference *)
  fired : int;
  ops : int;  (** operations the sample covers *)
  traced_dt : float option;  (** the same operation, traced *)
  clean_dt : float option;  (** the same input without faults *)
}

let run ~seed ~seconds ~trace =
  let st, setup_ts =
    Report.setup ~reps:Report.setup_reps ~teardown:(fun s -> Parallel.Pool.shutdown s.pool) (make_state ~seed)
  in
  let tally = Tally.create () in
  let samples = ref [] in
  let acc = Report.Acc.create () in
  let chol_stats = ref [] and lu_stats = ref [] and qr_stats = ref [] in
  let cg_stats = ref [] and clean_iters = ref 0 and storm_iters = ref 0 in
  let record ok = Tally.record tally ok in
  (* a structured give-up is a failure; a result reported good that
     fails the independent check is wrong *)
  let checked ok = if ok then Tally.Ok else Tally.Wrong in
  Report.closed_loop ~min_ops:(Array.length kinds) ~seconds (fun i ->
      let kind = kinds.(i mod Array.length kinds) in
      let round = i / 2 in
      let input = round mod inputs in
      let op_seed = Inputs.derive ~seed ~stream:13 i in
      let timed f =
        Report.settle ();
        Report.time f
      in
      let timed_ref f =
        Report.settle ();
        Report.time_ref f
      in
      let sample =
        match kind with
        | Chol ->
            let a = st.spd.(input) in
            let family = families.(round mod Array.length families) in
            let plan = Campaign.plan family ~seed:op_seed ~grid ~block ~count:faults in
            let go ?(obs = Obs.null) plan () = C.Ft.factor ~pool:st.pool ~obs ~plan chol_cfg a in
            let r, t = timed_ref (go plan) in
            let l = r.C.Ft.factor in
            record
              (match r.C.Ft.outcome with
              | C.Ft.Gave_up _ -> Tally.Failed
              | C.Ft.Silent_corruption -> Tally.Wrong
              | C.Ft.Success ->
                  checked
                      (Check.is_cholesky_shaped l
                      && Check.ok_below Check.factor_tol (Check.cholesky_residual ~a ~l)));
            let traced_dt, clean_dt =
              if not trace then (None, None)
              else begin
                let obs = Obs.create () in
                let rt, tdt = timed (go ~obs plan) in
                Report.Acc.add_obs acc obs;
                chol_stats := rt.C.Ft.stats :: !chol_stats;
                let _, cdt = timed (go []) in
                (Some tdt, Some cdt)
              end
            in
            { kind; t; fired = List.length r.C.Ft.injections_fired; ops = 1; traced_dt; clean_dt }
        | Lu ->
            let a = st.dominant.(input) in
            let plan =
              Fault.random_plan ~covered_only:true ~seed:op_seed ~grid ~block ~count:2
                ~storage_fraction:0.5 ()
            in
            let r, t = timed_ref (fun () -> Ftlu.Ft_lu.factor ~plan ~block a) in
            record
              (match r.Ftlu.Ft_lu.outcome with
              | Ftlu.Ft_lu.Gave_up _ -> Tally.Failed
              | Ftlu.Ft_lu.Silent_corruption -> Tally.Wrong
              | Ftlu.Ft_lu.Success ->
                  checked
                      (Check.ok_below Check.factor_tol
                         (Check.lu_residual ~a ~l:r.Ftlu.Ft_lu.l ~u:r.Ftlu.Ft_lu.u)));
            if trace then lu_stats := r.Ftlu.Ft_lu.stats :: !lu_stats;
            { kind; t; fired = List.length r.Ftlu.Ft_lu.injections_fired; ops = 1; traced_dt = None; clean_dt = None }
        | Qr ->
            let a = st.dominant.(input) in
            let plan = qr_plan ~seed:op_seed in
            let r, t = timed_ref (fun () -> Ftqr.Ft_qr.factor ~plan ~block a) in
            record
              (match r.Ftqr.Ft_qr.outcome with
              | Ftqr.Ft_qr.Gave_up _ -> Tally.Failed
              | Ftqr.Ft_qr.Silent_corruption -> Tally.Wrong
              | Ftqr.Ft_qr.Success ->
                  checked
                      (Check.ok_below Check.factor_tol
                         (Check.qr_residual ~a ~q:r.Ftqr.Ft_qr.q ~r:r.Ftqr.Ft_qr.r)
                      && Check.ok_below Check.orth_tol (Check.orthogonality r.Ftqr.Ft_qr.q)));
            if trace then qr_stats := r.Ftqr.Ft_qr.stats :: !qr_stats;
            { kind; t; fired = List.length r.Ftqr.Ft_qr.injections_fired; ops = 1; traced_dt = None; clean_dt = None }
        | Pcg ->
            (* one sample covers a slot of solves, one per input system,
               each under its own solver-storm plan. A solve is ~40×
               shorter than the other kinds, and its time clusters at
               the 6 to 10 iterations its plan costs, with a rare restart
               at ~100×: a median over single solves jumps between
               clusters as the plan mix shifts, and a mean follows the
               restarts. The slot's interquartile mean does neither. The
               reference is taken before and after the slot, as
               factor-large does. *)
            let before = Perfbench_ref.Calib.samples 3 in
            let solves =
              List.init inputs (fun j ->
                  let op_seed = Inputs.derive ~seed ~stream:14 ((i * inputs) + j) in
                  let a = st.spd.(j) and b = st.rhs.(j) and precond = st.precond.(j) in
                  let plan =
                    Campaign.plan Campaign.Solver_storm ~seed:op_seed ~grid ~block ~count:faults
                  in
                  let go ?(obs = Obs.null) plan () = Solvers.Cg.solve ~obs ~plan ~precond cg_cfg a b in
                  let r, dt = timed (go plan) in
                  record
                    (match r.Solvers.Cg.outcome with
                    | Solvers.Cg.Gave_up _ -> Tally.Failed
                    | Solvers.Cg.Converged ->
                        checked
                          (Check.ok_below Check.solve_tol
                             (Check.solve_residual ~a ~x:r.Solvers.Cg.x ~b)));
                  if trace then begin
                    let obs = Obs.create () in
                    let rt, _ = timed (go ~obs plan) in
                    Report.Acc.add_obs acc obs;
                    cg_stats := rt.Solvers.Cg.stats :: !cg_stats;
                    let rc, _ = timed (go []) in
                    clean_iters := !clean_iters + rc.Solvers.Cg.stats.Solvers.Cg.iterations;
                    storm_iters := !storm_iters + rt.Solvers.Cg.stats.Solvers.Cg.iterations
                  end;
                  (dt, List.length r.Solvers.Cg.injections_fired))
            in
            let reference = Stats.median (before @ Perfbench_ref.Calib.samples 3) in
            {
              kind;
              t = { Report.raw = Stats.interquartile_mean (List.map fst solves); reference };
              fired = List.fold_left (fun a (_, f) -> a + f) 0 solves;
              ops = inputs;
              traced_dt = None;
              clean_dt = None;
            }
      in
      samples := sample :: !samples);
  Parallel.Pool.shutdown st.pool;
  let of_kind k = List.filter (fun s -> s.kind = k) !samples in
  let ts k = List.map (fun s -> s.t) (of_kind k) in
  let med k = Stats.median (Report.raws (ts k)) in
  let chol_s = med Chol and lu_s = med Lu and qr_s = med Qr and pcg_s = med Pcg in
  let fired = List.fold_left (fun a s -> a + s.fired) 0 !samples in
  let ops = List.fold_left (fun a s -> a + s.ops) 0 !samples in
  let layers =
    if not trace then []
    else
      (* serve-mixed is not gated (see README.md), so the server layer
         is traced here too *)
      snd
        (W_serve.traced_rung ~seed (W_serve.make_inputs ~seed) ~duration:(seconds *. serve_share)
           ~tally)
      @
      let chol = of_kind Chol in
      let traced = List.filter_map (fun s -> s.traced_dt) chol in
      let clean = List.filter_map (fun s -> s.clean_dt) chol in
      let ft = W_factor.ft_layers ~n ~block ~lanes:1 ~acc ~stats:!chol_stats ~wall:(Stats.mean traced) in
      let per stats f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) /. float_of_int (max 1 (List.length stats)) in
      let spans = Report.Acc.ops_prefix acc "" -. Report.Acc.ops_prefix acc "solver-" in
      List.filter (fun (k, _) -> k <> "parallel.busy_ratio") ft
      @ [
          ("cholesky.recovery_overhead", Stats.median (Report.raws (List.map (fun s -> s.t) chol)) /. Stats.median clean);
          ("fault.fired", float_of_int fired);
          ("fault.fired_per_op", float_of_int fired /. float_of_int ops);
          ("lu.factor_s", lu_s);
          ("lu.verifications", per !lu_stats (fun s -> s.Ftlu.Ft_lu.verifications));
          ("lu.restarts", per !lu_stats (fun s -> s.Ftlu.Ft_lu.restarts));
          ("qr.factor_s", qr_s);
          ("qr.verifications", per !qr_stats (fun s -> s.Ftqr.Ft_qr.verifications));
          ("qr.restarts", per !qr_stats (fun s -> s.Ftqr.Ft_qr.restarts));
          ("solvers.solve_s", pcg_s);
          ("solvers.iterations", per !cg_stats (fun s -> s.Solvers.Cg.iterations));
          ("solvers.verifications", per !cg_stats (fun s -> s.Solvers.Cg.verifications));
          ("solvers.detections", per !cg_stats (fun s -> s.Solvers.Cg.detections));
          ("solvers.rollbacks", per !cg_stats (fun s -> s.Solvers.Cg.rollbacks));
          ("solvers.restarts", per !cg_stats (fun s -> s.Solvers.Cg.restarts));
          ("solvers.useful_iter_ratio", float_of_int !clean_iters /. float_of_int (max 1 !storm_iters));
          ("solvers.verify_s", Report.Acc.ops acc [ "solver-verify" ] /. float_of_int (max 1 (List.length !cg_stats)));
          ("obs.tracing_overhead_s", Stats.median traced -. chol_s);
          (* Ft's own spans against the wall time of the traced calls:
             on one lane, what the driver's spans leave unexplained *)
          ("obs.span_coverage", spans /. List.fold_left ( +. ) 0. traced);
        ]
  in
  let timings =
    List.map
      (fun (k, name) -> (name, ts k))
      [ (Chol, "storm_chol_s"); (Lu, "storm_lu_s"); (Qr, "storm_qr_s"); (Pcg, "storm_pcg_s") ]
  in
  List.iter (fun (name, t) -> Printf.printf "%s\n" (Report.gated_line name t)) timings;
  Printf.printf "%s\n" (Report.gated_line "setup_s" setup_ts);
  let named =
    [
      Report.metric "setup_s" "s" (Stats.median (Report.raws setup_ts));
      Report.metric "storm_chol_s" "s" chol_s;
      Report.metric "storm_lu_s" "s" lu_s;
      Report.metric "storm_qr_s" "s" qr_s;
      Report.metric "storm_pcg_s" "s" pcg_s;
      Report.metric ~clock:Report.Derived "fail_share" "ratio" (Tally.fail_share tally);
    ]
  in
  {
    Report.workload = "fault-storm";
    e2e =
      (if trace then []
       else
         [
           Report.metric "setup_s" "s" (Report.gated setup_ts);
           Report.metric "op_s" "s" (Report.gated (ts Chol));
           (* the geometric mean weighs the three kinds alike: a
              twofold slowdown of any one moves it by 2^(1/3), 26% *)
           Report.metric "alt_op_s" "s"
             (Float.cbrt (Report.gated (ts Lu) *. Report.gated (ts Qr) *. Report.gated (ts Pcg)));
         ]);
    named;
    layers;
    tally;
    lanes = 1;
    timings = ("setup_s", setup_ts) :: timings;
  }
