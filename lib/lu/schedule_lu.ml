open Hetsim
module Config = Cholesky.Config

type result = {
  makespan : float;
  gflops : float;
  reruns : int;
  engine : Engine.t;
  resilience : Resilient.stats;
  degraded : bool;
}

type pass_state = {
  cfg : Config.t;
  eng : Engine.t;
  res : Resilient.t;
  bal : Load_balancer.t option;
      (* trailing-panel split; None keeps the GPU-only panels *)
  g : int;
  b : int;
  d : int;
  streams : int;
  placement : Config.placement;
  mutable prev_chk_ready : Engine.event;
  mutable prev_panels : Engine.event;  (* previous iteration's panel solves *)
}

let recalc st = Kernel.Checksum_recalc { b = st.b; nchk = st.d }

(* A verification batch over [kernels] single-side tile recalculations
   (a both-sides tile contributes two). *)
let verify st ~deps ~count : Engine.event =
  if count = 0 then Engine.join st.eng deps
  else begin
    let deps =
      match st.placement with
      | Config.Cpu_offload ->
          let bytes = count * st.d * st.b * 8 in
          [ Resilient.transfer st.res ~deps ~phase:"chk-transfer" ~dir:`H2d bytes ]
      | _ -> deps
    in
    let batch =
      Resilient.submit_batch st.res ~deps ~phase:"chk-recalc"
        ~streams:st.streams
        (List.init count (fun _ -> recalc st))
    in
    Resilient.submit st.res ~deps:[ batch ] ~phase:"chk-compare" Engine.Gpu
      (Kernel.Checksum_compare { b = st.b * count; nchk = st.d })
  end

let chk_update st ~deps ~skinny_rows : Engine.event =
  if skinny_rows = 0 then Engine.join st.eng deps
  else
    Cholesky.Schedule.submit_chk_update st.res st.placement ~deps
      (Kernel.Gemm { m = st.d * skinny_rows; n = st.b; k = st.b })

let run_pass st ~with_ft ~enhanced ~online ~offline ~kk =
  let g = st.g and b = st.b in
  let eng = st.eng in
  let res = st.res in
  let block_bytes = 8 * b * b in
  let encode_ev =
    if with_ft then begin
      (* dual checksums: two single-side encodes per tile *)
      let ev =
        Resilient.submit_batch res ~phase:"chk-encode" ~streams:st.streams
          (List.init (2 * g * g) (fun _ -> recalc st))
      in
      match st.placement with
      | Config.Cpu_offload ->
          Resilient.transfer res ~deps:[ ev ] ~phase:"chk-transfer" ~dir:`D2h
            (2 * g * g * st.d * b * 8)
      | _ -> ev
    end
    else Engine.ready
  in
  st.prev_chk_ready <- encode_ev;
  st.prev_panels <- Engine.ready;
  for j = 0 to g - 1 do
    let gate = j mod kk = 0 in
    (* ---- panel split (load balancer): one decision per iteration,
       shared by both panel sides ---- *)
    let rem0 = g - 1 - j in
    let split =
      match st.bal with
      | None -> None
      | Some bal ->
          let kernel =
            if j > 0 then Kernel.Gemm { m = rem0 * b; n = b; k = j * b }
            else Kernel.Trsm { order = b; nrhs = rem0 * b }
          in
          Some (Load_balancer.tick bal ~kernel ~rows:rem0)
    in
    let cpu_rows =
      match split with None -> 0 | Some s -> s.Load_balancer.cpu_rows
    in
    (* operand staging for the CPU slice: its panel rows' current state
       (j factored blocks + live tile per row), once per iteration *)
    let stage_ev =
      if cpu_rows > 0 then
        Resilient.transfer res ~deps:[ st.prev_panels ] ~phase:"balance"
          ~dir:`D2h
          (cpu_rows * (j + 1) * block_bytes)
      else Engine.ready
    in
    let chk_updates = ref [] in
    let verify_deps = [ st.prev_chk_ready ] in
    let lc_panel_ev =
      if with_ft && st.placement = Config.Cpu_offload && j > 0 then
        (* both panels of every previous iteration are update operands *)
        Resilient.transfer res ~deps:[ st.prev_panels ] ~phase:"chk-transfer"
          ~dir:`D2h
          (2 * j * block_bytes)
      else Engine.ready
    in
    (* ---- lazy diagonal update; inputs always verified ---- *)
    let pre_diag =
      if enhanced && with_ft then
        verify st ~deps:verify_deps ~count:(2 + (2 * j))
      else Engine.ready
    in
    let diag_upd_ev =
      if j > 0 then
        Resilient.submit res ~deps:[ pre_diag ] ~phase:"compute" Engine.Gpu
          (Kernel.Gemm { m = b; n = b; k = j * b })
      else Engine.join eng [ pre_diag ]
    in
    if with_ft && j > 0 then
      chk_updates :=
        chk_update st ~deps:[ lc_panel_ev ] ~skinny_rows:(2 * j)
        :: !chk_updates;
    let post_diag_upd =
      if online && with_ft && j > 0 then
        verify st ~deps:[ diag_upd_ev ] ~count:2
      else diag_upd_ev
    in
    (* ---- GETF2 on the CPU between the two transfers ---- *)
    let d2h_ev =
      Resilient.transfer res ~deps:[ post_diag_upd ] ~dir:`D2h block_bytes
    in
    let getf2_ev =
      Resilient.submit res ~deps:[ d2h_ev ] ~phase:"compute" Engine.Cpu
        (Kernel.Host_flops (2. /. 3. *. (float_of_int b ** 3.)))
    in
    if with_ft then begin
      (* the two triangular checksum transforms, tiny *)
      let u = chk_update st ~deps:[ getf2_ev ] ~skinny_rows:2 in
      chk_updates := u :: !chk_updates
    end;
    let h2d_ev =
      Resilient.transfer res ~deps:[ getf2_ev ] ~dir:`H2d block_bytes
    in
    if online && with_ft then ignore (verify st ~deps:[ getf2_ev ] ~count:2);
    (* ---- panels ---- *)
    if j < g - 1 then begin
      let rem = g - 1 - j in
      let panel_evs = ref [] in
      List.iter
        (fun _side ->
          (* lazy update of the panel, K-gated pre-read verification of
             the panel tiles (both sides) and the older factored tiles *)
          let pre =
            if enhanced && with_ft && gate then
              verify st ~deps:verify_deps ~count:(rem * (2 + j))
            else Engine.ready
          in
          let upd_ev =
            if j > 0 then begin
              if cpu_rows = 0 then
                Resilient.submit res ~deps:[ pre ] ~phase:"compute" Engine.Gpu
                  (Kernel.Gemm { m = rem * b; n = b; k = j * b })
              else begin
                let gpu_part =
                  if rem - cpu_rows > 0 then
                    Resilient.submit res ~deps:[ pre ] ~phase:"compute"
                      Engine.Gpu
                      (Kernel.Gemm { m = (rem - cpu_rows) * b; n = b; k = j * b })
                  else Engine.ready
                in
                let cpu_part =
                  Resilient.submit res ~deps:[ pre; stage_ev ] ~phase:"compute"
                    Engine.Cpu
                    (Kernel.Gemm { m = cpu_rows * b; n = b; k = j * b })
                in
                Engine.join eng [ gpu_part; cpu_part ]
              end
            end
            else Engine.join eng [ pre ]
          in
          if with_ft && j > 0 then
            chk_updates :=
              chk_update st ~deps:[ lc_panel_ev ] ~skinny_rows:(2 * rem * j)
              :: !chk_updates;
          if online && with_ft && j > 0 then
            ignore (verify st ~deps:[ upd_ev ] ~count:(2 * rem));
          (* solve against the factored diagonal *)
          let pre_solve =
            if enhanced && with_ft then
              verify st ~deps:(h2d_ev :: verify_deps) ~count:2
            else Engine.ready
          in
          let solve_ev =
            if cpu_rows = 0 then
              Resilient.submit res
                ~deps:[ h2d_ev; upd_ev; pre_solve ]
                ~phase:"compute" Engine.Gpu
                (Kernel.Trsm { order = b; nrhs = rem * b })
            else begin
              let gpu_part =
                if rem - cpu_rows > 0 then
                  Resilient.submit res
                    ~deps:[ h2d_ev; upd_ev; pre_solve ]
                    ~phase:"compute" Engine.Gpu
                    (Kernel.Trsm { order = b; nrhs = (rem - cpu_rows) * b })
                else Engine.ready
              in
              (* the CPU slice reads the factored diagonal straight
                 from GETF2's host-resident output *)
              let cpu_part =
                Resilient.submit res
                  ~deps:[ getf2_ev; upd_ev; pre_solve; stage_ev ]
                  ~phase:"compute" Engine.Cpu
                  (Kernel.Trsm { order = b; nrhs = cpu_rows * b })
              in
              Engine.join eng [ gpu_part; cpu_part ]
            end
          in
          panel_evs := solve_ev :: !panel_evs;
          if with_ft then
            chk_updates :=
              chk_update st ~deps:[ solve_ev ] ~skinny_rows:rem :: !chk_updates;
          if online && with_ft then
            ignore (verify st ~deps:[ solve_ev ] ~count:rem))
        [ `Col; `Row ];
      st.prev_panels <- Engine.join eng !panel_evs
    end;
    st.prev_chk_ready <- Engine.join eng !chk_updates
  done;
  if offline then
    (* end-of-run detect-only sweep over both sides of every tile *)
    ignore (verify st ~deps:[ st.prev_chk_ready ] ~count:(2 * g * g))

let run ?(plan = []) ?(d = 2) ?policy ?(fault_seed = 0) cfg ~n =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Schedule_lu.run: " ^ e));
  let b = Config.block_size cfg in
  if n <= 0 || n mod b <> 0 then
    invalid_arg
      (Printf.sprintf
         "Schedule_lu.run: n=%d must be a positive multiple of the block %d" n b);
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
  let res = Resilient.create ?policy ?balancer:bal ~seed:fault_seed eng in
  let st =
    {
      cfg;
      eng;
      res;
      bal;
      g = n / b;
      b;
      d;
      streams = Config.effective_recalc_streams cfg;
      placement;
      prev_chk_ready = Engine.ready;
      prev_panels = Engine.ready;
    }
  in
  run_pass st ~with_ft ~enhanced ~online ~offline ~kk;
  let reruns =
    Cholesky.Schedule.reruns scheme
      ~uncorrected:(Cholesky.Schedule.uncorrected scheme plan)
      res
  in
  if reruns > 0 then run_pass st ~with_ft ~enhanced ~online ~offline ~kk;
  let makespan = Engine.makespan eng in
  {
    makespan;
    gflops = 2. *. (float_of_int n ** 3.) /. 3. /. makespan /. 1e9;
    reruns;
    engine = eng;
    resilience = Resilient.stats res;
    degraded = Resilient.degraded res;
  }
