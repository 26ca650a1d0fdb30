open Hetsim

type result = {
  makespan : float;
  gflops : float;
  reruns : int;
  trace : Trace_op.t list;
  engine : Engine.t;
  placement : Config.placement;
  resilience : Resilient.stats;
  degraded : bool;
}

let uncorrected scheme plan =
  let correctable (inj : Fault.injection) =
    match inj.Fault.window with
    | Fault.In_computation Fault.Potf2 ->
        (* The POTF2 checksum update consumes the (corrupted) factor,
           so the stored checksum chases the corruption: detected but
           not locatable. See Ft's documentation. *)
        false
    | Fault.In_computation _ -> Abft.Scheme.corrects_computing_errors scheme
    | Fault.In_storage | Fault.In_device ->
        (* a corrupted transfer materializes as wrong bits in the tile:
           storage-class, healed only by pre-read verification *)
        Abft.Scheme.corrects_storage_errors scheme
    | Fault.In_checksum | Fault.In_update _ -> (
        (* Checksum-side corruption never touches the factor. The
           replicated store repairs it at the next verification (or it
           is simply never consulted again); only Offline's detect-only
           end-of-run check still forces a rerun on the mismatch. *)
        match scheme with
        | Abft.Scheme.Offline -> false
        | Abft.Scheme.No_ft | Abft.Scheme.Online | Abft.Scheme.Enhanced _ ->
            true)
    | Fault.In_solver _ ->
        (* Solver windows never fire during a factorization pass; the
           timing simulation has nothing to rerun for them. *)
        true
  in
  List.filter (fun inj -> not (correctable inj)) plan

(* One recovery pass is appended when an injection escapes the scheme,
   or when a corrupted transfer landed wrong bits in device (or host)
   memory: for the timeline that is exactly an In_storage fault, so it
   forces a rerun on any scheme that cannot locate-and-correct storage
   errors. The resilient driver deliberately does not retry it. *)
let reruns scheme ~uncorrected res =
  let transfer_faults =
    (Resilient.stats res).Resilient.corrupted_transfers > 0
    && not (Abft.Scheme.corrects_storage_errors scheme)
  in
  if uncorrected <> [] || transfer_faults then 1 else 0

(* State for one simulated pass. *)
type pass_state = {
  cfg : Config.t;
  eng : Engine.t;
  res : Resilient.t;
  bal : Load_balancer.t option;
      (* trailing-update split policy; None = historical GPU-only
         trailing update, byte-identical schedule *)
  obs : Obs.t;
  g : int;
  b : int;
  d : int;
  streams : int;  (* recalc/encode batch width *)
  placement : Config.placement;
  mutable trace : Trace_op.t list;
  mutable prev_chk_ready : Engine.event;
      (* cumulative join of every checksum update issued in earlier
         iterations *)
  mutable lc_hist : Engine.event;
      (* CPU placement: join of every factored-panel download through
         iteration j-2 — those blocks had at least one full iteration
         of link slack. *)
  mutable lc_last_priority : Engine.event;
      (* the priority block L(j, j-1), shipped first after TRSM(j-1)
         because the very next iteration's updates consume it *)
  mutable lc_last_bulk : Engine.event;
      (* the rest of TRSM(j-1)'s panel — needed from iteration j+1 on *)
  mutable degraded_emitted : bool;
      (* the Degraded trace op is recorded once per pass *)
  mutable prev_trsm : Engine.event;
      (* completion of the previous iteration's whole panel solve —
         the producer of the pivot row the CPU slice reads *)
  mutable cpu_owned : int;
      (* bottom block-rows of the trailing set currently host-resident
         under a balanced split; ownership changes are charged as
         migration transfers *)
}

let emit st op = st.trace <- op :: st.trace

let recalc_kernel st = Kernel.Checksum_recalc { b = st.b; nchk = st.d }

(* One verification pass over [blocks]: a concurrent batch of BLAS-2
   recalculations (Optimization 1), preceded for CPU placement by the
   upload of the stored checksums it compares against, plus one trivial
   compare op. Returns the event the consuming kernel must wait for. *)
let verify st ~j ~point ~deps blocks : Engine.event =
  emit st (Trace_op.Verify { j; point; blocks });
  match blocks with
  | [] -> Engine.join st.eng deps
  | _ ->
      let nb = List.length blocks in
      let deps =
        match st.placement with
        | Config.Cpu_offload ->
            let bytes = nb * st.d * st.b * 8 in
            [ Resilient.transfer st.res ~deps ~phase:"chk-transfer" ~dir:`H2d bytes ]
        | _ -> deps
      in
      let batch =
        Resilient.submit_batch st.res ~deps ~phase:"chk-recalc"
          ~streams:st.streams
          (List.init nb (fun _ -> recalc_kernel st))
      in
      Resilient.submit st.res ~deps:[ batch ] ~phase:"chk-compare" Engine.Gpu
        (Kernel.Checksum_compare { b = st.b * nb; nchk = st.d })

(* Optimization 2 placement of one checksum-update kernel: inline on
   the GPU main engine, on its spare channel, or on the CPU. *)
let submit_chk_update res placement ~deps kernel : Engine.event =
  match placement with
  | Config.Auto -> assert false
  | Config.Gpu_inline ->
      Resilient.submit res ~deps ~phase:"chk-update" Engine.Gpu kernel
  | Config.Gpu_stream ->
      Resilient.submit_background res ~deps ~phase:"chk-update" kernel
  | Config.Cpu_offload ->
      Resilient.submit res ~deps ~phase:"chk-update" Engine.Cpu kernel

(* Aggregated checksum-update work for one op class of one iteration:
   [count] skinny (d x b) x (b x b) products. Returns the completion
   event. *)
let chk_update st ~deps ~count kernel_of_count : Engine.event =
  if count = 0 then Engine.join st.eng deps
  else submit_chk_update st.res st.placement ~deps (kernel_of_count count)

let gemm_update_kernel st count =
  (* count skinny gemms (d x b) . (b x b): inner dim b. *)
  Kernel.Gemm { m = st.d * count; n = st.b; k = st.b }

let trsm_update_kernel st count =
  Kernel.Trsm { order = st.b; nrhs = st.d * count }

let run_pass st ~with_ft ~enhanced ~online ~offline ~kk =
  let g = st.g and b = st.b in
  let eng = st.eng in
  let res = st.res in
  let block_bytes = 8 * b * b in
  (* Initial encoding: one recalc-shaped pass over every lower tile. *)
  let encode_ev =
    if with_ft then begin
      emit st Trace_op.Encode;
      let nblocks = g * (g + 1) / 2 in
      let ev =
        Engine.submit_batch eng ~phase:"chk-encode" ~streams:st.streams
          (List.init nblocks (fun _ -> recalc_kernel st))
      in
      match st.placement with
      | Config.Cpu_offload ->
          (* checksums live host-side: initial download (§VI 6a). *)
          Engine.transfer eng ~deps:[ ev ] ~phase:"chk-transfer" ~dir:`D2h
            (nblocks * st.d * b * 8)
      | _ -> ev
    end
    else Engine.ready
  in
  st.prev_chk_ready <- encode_ev;
  st.lc_hist <- Engine.ready;
  st.lc_last_priority <- Engine.ready;
  st.lc_last_bulk <- Engine.ready;
  st.prev_trsm <- Engine.ready;
  st.cpu_owned <- 0;
  for j = 0 to g - 1 do
    emit st (Trace_op.Iteration_start j);
    (* ---- trailing-update split (load balancer) ---- *)
    let trail = g - 1 - j in
    let split =
      match st.bal with
      | None -> None
      | Some bal ->
          let kernel =
            if Sets.gemm_exists ~grid:g ~j then
              Kernel.Gemm { m = trail * b; n = b; k = j * b }
            else Kernel.Trsm { order = b; nrhs = trail * b }
          in
          let s = Load_balancer.tick bal ~kernel ~rows:trail in
          Obs.observe st.obs "balance.gpu_share" s.Load_balancer.share;
          if s.Load_balancer.resplit then begin
            Obs.incr st.obs "balance.resplits";
            emit st
              (Trace_op.Rebalance
                 {
                   j;
                   gpu_rows = s.Load_balancer.gpu_rows;
                   cpu_rows = s.Load_balancer.cpu_rows;
                 })
          end;
          Some s
    in
    let cpu_rows =
      match split with None -> 0 | Some s -> s.Load_balancer.cpu_rows
    in
    (* Ownership migration: a block-row changing sides carries its
       current row state — the j factored panel blocks plus the live
       trailing tile — over the link once, after the solve that last
       touched it. Rows that stay put pay nothing. *)
    let migrate_ev =
      match split with
      | None -> Engine.ready
      | Some _ ->
          let owned = min st.cpu_owned trail in
          let delta = cpu_rows - owned in
          st.cpu_owned <- cpu_rows;
          if delta = 0 then Engine.ready
          else begin
            Obs.incr st.obs
              ~by:(float_of_int (abs delta))
              "balance.migrated_rows";
            let bytes = abs delta * (j + 1) * block_bytes in
            let dir = if delta > 0 then `D2h else `H2d in
            Resilient.transfer res ~deps:[ st.prev_trsm ] ~phase:"balance" ~dir
              bytes
          end
    in
    (* The CPU slice multiplies against the pivot row L(j, 0..j-1),
       produced device-side by the previous iteration's panel solve. *)
    let pivot_ev =
      if cpu_rows > 0 && j > 0 then
        Resilient.transfer res ~deps:[ st.prev_trsm ] ~phase:"balance"
          ~dir:`D2h (j * block_bytes)
      else Engine.ready
    in
    let gate = Sets.k_gate ~k:kk ~j in
    let chk_updates = ref [] in
    (* Verification compares against stored checksums, so each verify
       point waits for the updates that touched exactly its operands:
       all earlier-iteration updates (cumulative [prior_chk]), plus the
       specific same-iteration update events named per point below. *)
    let prior_chk = st.prev_chk_ready in
    (* For CPU placement, this iteration's updates need the LC row
       blocks host-side: everything through iteration j-2 plus the
       priority block from j-1 (see the [lc_*] fields). *)
    let lc_panel_ev =
      if with_ft && st.placement = Config.Cpu_offload then
        Engine.join eng [ st.lc_hist; st.lc_last_priority ]
      else Engine.ready
    in
    (* ---- SYRK ---- *)
    let syrk_ev =
      if Sets.syrk_exists ~j then begin
        let pre =
          if enhanced then
            verify st ~j ~point:Trace_op.Pre_syrk ~deps:[ prior_chk ]
              (Sets.pre_syrk ~j)
          else Engine.ready
        in
        let ev =
          Resilient.submit res ~deps:[ pre ] ~phase:"compute" Engine.Gpu
            (Kernel.Syrk { n = b; k = j * b })
        in
        emit st (Trace_op.Syrk j);
        let syrk_chk =
          if with_ft then begin
            let u =
              chk_update st ~deps:[ lc_panel_ev ] ~count:j (gemm_update_kernel st)
            in
            emit st (Trace_op.Chk_syrk j);
            chk_updates := u :: !chk_updates;
            u
          end
          else Engine.ready
        in
        if online then
          ignore
            (verify st ~j ~point:Trace_op.Post_syrk
               ~deps:[ ev; syrk_chk; prior_chk ]
               (Sets.post_syrk ~j));
        (ev, syrk_chk)
      end
      else (Engine.ready, Engine.ready)
    in
    let syrk_ev, syrk_chk_ev = syrk_ev in
    (* ---- diagonal block to host (verified first under Enhanced) ---- *)
    let pre_potf2_ev =
      if enhanced then
        verify st ~j ~point:Trace_op.Pre_potf2
          ~deps:[ syrk_ev; prior_chk; syrk_chk_ev ]
          (Sets.pre_potf2 ~j)
      else Engine.ready
    in
    let d2h_ev =
      Resilient.transfer res ~deps:[ syrk_ev; pre_potf2_ev ] ~dir:`D2h
        block_bytes
    in
    emit st (Trace_op.D2h_diag j);
    (* ---- GEMM ---- *)
    let gemm_ev =
      if Sets.gemm_exists ~grid:g ~j then begin
        let pre =
          if enhanced && gate then
            verify st ~j ~point:Trace_op.Pre_gemm ~deps:[ prior_chk ]
              (Sets.pre_gemm ~grid:g ~j)
          else Engine.ready
        in
        let gpu_rows = trail - cpu_rows in
        let gemm_gpu =
          if gpu_rows > 0 then
            Resilient.submit res ~deps:[ pre ] ~phase:"compute" Engine.Gpu
              (Kernel.Gemm { m = gpu_rows * b; n = b; k = j * b })
          else Engine.ready
        in
        let gemm_cpu =
          if cpu_rows > 0 then
            Resilient.submit res
              ~deps:[ pre; pivot_ev; migrate_ev ]
              ~phase:"compute" Engine.Cpu
              (Kernel.Gemm { m = cpu_rows * b; n = b; k = j * b })
          else Engine.ready
        in
        let ev =
          if cpu_rows = 0 then gemm_gpu
          else Engine.join eng [ gemm_gpu; gemm_cpu ]
        in
        emit st (Trace_op.Gemm j);
        let gemm_chk =
          if with_ft then begin
            let u =
              chk_update st ~deps:[ lc_panel_ev ]
                ~count:((g - 1 - j) * j)
                (gemm_update_kernel st)
            in
            emit st (Trace_op.Chk_gemm j);
            chk_updates := u :: !chk_updates;
            u
          end
          else Engine.ready
        in
        if online then
          ignore
            (verify st ~j ~point:Trace_op.Post_gemm
               ~deps:[ ev; gemm_chk; prior_chk ]
               (Sets.post_gemm ~grid:g ~j));
        (ev, gemm_chk, gemm_gpu, gemm_cpu)
      end
      else (Engine.ready, Engine.ready, Engine.ready, Engine.ready)
    in
    let gemm_ev, gemm_chk_ev, gemm_gpu_ev, gemm_cpu_ev = gemm_ev in
    (* ---- POTF2 on the CPU, overlapping the GEMM ---- *)
    let potf2_ev =
      Resilient.submit res ~deps:[ d2h_ev ] ~phase:"compute" Engine.Cpu
        (Kernel.Potf2 { n = b })
    in
    emit st (Trace_op.Potf2 j);
    let chk_potf2_ev =
      if with_ft then begin
        (* Algorithm 2 is tiny; it runs where the factored block lives
           (the CPU), or inline per placement for the GPU variants. *)
        let u =
          chk_update st ~deps:[ potf2_ev ] ~count:1 (trsm_update_kernel st)
        in
        emit st (Trace_op.Chk_potf2 j);
        chk_updates := u :: !chk_updates;
        u
      end
      else Engine.ready
    in
    if online then
      ignore
        (verify st ~j ~point:Trace_op.Post_potf2
           ~deps:[ potf2_ev; chk_potf2_ev; prior_chk ]
           (Sets.post_potf2 ~j));
    (* ---- factored block back to the device ---- *)
    let h2d_ev =
      Resilient.transfer res ~deps:[ potf2_ev ] ~dir:`H2d block_bytes
    in
    emit st (Trace_op.H2d_diag j);
    (* ---- TRSM ---- *)
    if Sets.trsm_exists ~grid:g ~j then begin
      let pre =
        if enhanced && gate then
          verify st ~j ~point:Trace_op.Pre_trsm
            ~deps:[ h2d_ev; gemm_ev; prior_chk; chk_potf2_ev; gemm_chk_ev ]
            (Sets.pre_trsm ~grid:g ~j)
        else Engine.ready
      in
      let ev =
        if cpu_rows = 0 then
          Resilient.submit res
            ~deps:[ h2d_ev; gemm_ev; pre ]
            ~phase:"compute" Engine.Gpu
            (Kernel.Trsm { order = b; nrhs = (g - 1 - j) * b })
        else begin
          (* each side solves exactly the rows whose update it owns;
             the CPU side reads the factored diagonal straight from
             POTF2's host-resident output, no h2d round-trip *)
          let gpu_part =
            if trail - cpu_rows > 0 then
              Resilient.submit res
                ~deps:[ h2d_ev; gemm_gpu_ev; pre ]
                ~phase:"compute" Engine.Gpu
                (Kernel.Trsm { order = b; nrhs = (trail - cpu_rows) * b })
            else Engine.ready
          in
          let cpu_part =
            Resilient.submit res
              ~deps:[ potf2_ev; gemm_cpu_ev; pre; migrate_ev ]
              ~phase:"compute" Engine.Cpu
              (Kernel.Trsm { order = b; nrhs = cpu_rows * b })
          in
          Engine.join eng [ gpu_part; cpu_part ]
        end
      in
      st.prev_trsm <- ev;
      emit st (Trace_op.Trsm j);
      if with_ft && st.placement = Config.Cpu_offload then begin
        (* stream the freshly factored panel to the host (§VI 6b),
           next iteration's LC block first *)
        let priority =
          Resilient.transfer res ~deps:[ ev ] ~phase:"chk-transfer" ~dir:`D2h
            block_bytes
        in
        let bulk =
          if g - 2 - j > 0 then
            Resilient.transfer res ~deps:[ ev ] ~phase:"chk-transfer" ~dir:`D2h
              ((g - 2 - j) * block_bytes)
          else Engine.ready
        in
        st.lc_hist <-
          Engine.join eng [ st.lc_hist; st.lc_last_priority; st.lc_last_bulk ];
        st.lc_last_priority <- priority;
        st.lc_last_bulk <- bulk
      end;
      let trsm_chk =
        if with_ft then begin
          let u =
            chk_update st
              ~deps:[ chk_potf2_ev; h2d_ev ]
              ~count:(g - 1 - j) (trsm_update_kernel st)
          in
          emit st (Trace_op.Chk_trsm j);
          chk_updates := u :: !chk_updates;
          u
        end
        else Engine.ready
      in
      if online then
        ignore
          (verify st ~j ~point:Trace_op.Post_trsm
             ~deps:[ ev; trsm_chk; prior_chk ]
             (Sets.post_trsm ~grid:g ~j))
    end;
    st.prev_chk_ready <- Engine.join eng (prior_chk :: !chk_updates);
    if Resilient.degraded res && not st.degraded_emitted then begin
      st.degraded_emitted <- true;
      emit st (Trace_op.Degraded j)
    end
  done;
  (* ---- Offline-ABFT's end-of-run verification ---- *)
  if offline then begin
    let blocks = Sets.all_lower ~grid:st.g in
    ignore
      (verify st ~j:(g - 1) ~point:Trace_op.Post_trsm ~deps:[ st.prev_chk_ready ]
         blocks);
    (* Replace the generic marker: the trace records Final_verify. *)
    (match st.trace with
    | Trace_op.Verify _ :: rest -> st.trace <- Trace_op.Final_verify blocks :: rest
    | _ -> assert false)
  end

let run ?pool:_ ?(plan = []) ?(d = 2) ?policy ?(fault_seed = 0) ?obs cfg ~n =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Schedule.run: " ^ e));
  let b = Config.block_size cfg in
  if n <= 0 || n mod b <> 0 then
    invalid_arg
      (Printf.sprintf
         "Schedule.run: n=%d must be a positive multiple of the block size %d"
         n b);
  let scheme = cfg.Config.scheme in
  let with_ft = scheme <> Abft.Scheme.No_ft in
  let enhanced = match scheme with Abft.Scheme.Enhanced _ -> true | _ -> false in
  let online = scheme = Abft.Scheme.Online in
  let offline = scheme = Abft.Scheme.Offline in
  let kk = Abft.Scheme.verification_interval scheme in
  let placement =
    if with_ft then Config.resolve_placement cfg ~n else Config.Gpu_inline
  in
  let eng = Engine.create ~seed:fault_seed cfg.Config.machine in
  let bal = Config.balancer cfg in
  let res = Resilient.create ?policy ?balancer:bal ~seed:fault_seed ?obs eng in
  let st =
    {
      cfg;
      eng;
      res;
      bal;
      obs = Option.value obs ~default:Obs.null;
      g = n / b;
      b;
      d;
      streams = Config.effective_recalc_streams cfg;
      placement;
      trace = [];
      prev_chk_ready = Engine.ready;
      lc_hist = Engine.ready;
      lc_last_priority = Engine.ready;
      lc_last_bulk = Engine.ready;
      degraded_emitted = false;
      prev_trsm = Engine.ready;
      cpu_owned = 0;
    }
  in
  run_pass st ~with_ft ~enhanced ~online ~offline ~kk;
  let reruns = reruns scheme ~uncorrected:(uncorrected scheme plan) res in
  if reruns > 0 then begin
    st.trace <- [];
    st.degraded_emitted <- false;
    run_pass st ~with_ft ~enhanced ~online ~offline ~kk
  end;
  let makespan = Engine.makespan eng in
  {
    makespan;
    gflops = float_of_int n ** 3. /. 3. /. makespan /. 1e9;
    reruns;
    trace = List.rev st.trace;
    engine = eng;
    placement;
    resilience = Resilient.stats res;
    degraded = Resilient.degraded res;
  }

(* A batch of independent simulations — a parameter sweep — fanned out
   across the pool. Each run builds its own engine and state, so runs
   share nothing mutable; results come back in input order. *)
let run_many ?pool ?(d = 2) jobs =
  let module Pool = Parallel.Pool in
  let jobs = Array.of_list jobs in
  let nj = Array.length jobs in
  let out = Array.make nj None in
  let run_one k =
    let cfg, n = jobs.(k) in
    out.(k) <- Some (run ~d cfg ~n)
  in
  let pool = match pool with Some p -> p | None -> Pool.default () in
  if Pool.size pool > 1 && nj > 1 then
    Pool.parallel_for ~chunk:1 pool ~lo:0 ~hi:nj run_one
  else
    for k = 0 to nj - 1 do
      run_one k
    done;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) out)
