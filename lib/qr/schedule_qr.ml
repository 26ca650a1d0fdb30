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

(* QR differs from Cholesky in one classification: the MGS (Potf2)
   window is an ordinary post-update error because the checksum is
   transformed together with the data. *)
let uncorrected scheme plan =
  Cholesky.Schedule.uncorrected scheme plan
  |> List.filter (fun (inj : Fault.injection) ->
         match inj.Fault.window with
         | Fault.In_computation Fault.Potf2 ->
             not (Abft.Scheme.corrects_computing_errors scheme)
         | _ -> true)

type pass_state = {
  eng : Engine.t;
  res : Resilient.t;
  bal : Load_balancer.t option;
      (* trailing-projection split; None keeps the GPU-only projections *)
  m : int;
  b : int;
  nb : int;
  d : int;
  streams : int;
  placement : Config.placement;
  mutable prev_chk_ready : Engine.event;
}

(* A panel verification: one rectangular recalc kernel (m x b fused
   pass) per panel side. *)
let panel_recalc st = Kernel.Gemv { m = st.m; n = st.b }

let verify st ~deps ~panels : Engine.event =
  if panels = 0 then Engine.join st.eng deps
  else begin
    let batch =
      Resilient.submit_batch st.res ~deps ~phase:"chk-recalc"
        ~streams:st.streams
        (List.init panels (fun _ -> panel_recalc st))
    in
    Resilient.submit st.res ~deps:[ batch ] ~phase:"chk-compare" Engine.Gpu
      (Kernel.Checksum_compare { b = st.b * panels; nchk = st.d })
  end

let chk_update st ~deps ~flops : Engine.event =
  if flops <= 0. then Engine.join st.eng deps
  else
    Cholesky.Schedule.submit_chk_update st.res st.placement ~deps
      (Kernel.Host_flops flops)

let run_pass st ~with_ft ~enhanced ~online ~offline ~kk =
  let eng = st.eng in
  let res = st.res in
  let fb = float_of_int st.b in
  let encode_ev =
    if with_ft then
      Resilient.submit_batch res ~phase:"chk-encode" ~streams:st.streams
        (List.init st.nb (fun _ -> panel_recalc st))
    else Engine.ready
  in
  st.prev_chk_ready <- encode_ev;
  (* panel rows in block-row units, the balancer's splitting grain *)
  let rblocks = max 1 (st.m / st.b) in
  for j = 0 to st.nb - 1 do
    let gate = j mod kk = 0 in
    let chk_updates = ref [] in
    let prior_chk = st.prev_chk_ready in
    (* ---- projection split (load balancer): one decision per
       iteration, shared by all j projections of this panel ---- *)
    let cpu_m =
      match st.bal with
      | None -> 0
      | Some bal ->
          let s =
            Load_balancer.tick bal
              ~kernel:(Kernel.Gemm { m = st.m; n = st.b; k = st.b })
              ~rows:rblocks
          in
          if j = 0 then 0 else min st.m (s.Load_balancer.cpu_rows * st.b)
    in
    (* stage the CPU-owned slice of the live panel to the host once;
       it stays there across this iteration's projections *)
    let stage_ev =
      if cpu_m > 0 then
        Resilient.transfer res ~deps:[ prior_chk ] ~phase:"balance" ~dir:`D2h
          (cpu_m * st.b * 8)
      else Engine.ready
    in
    (* block projections: per previous panel k, a pre-read verify of
       both operands (K-gated), one projection GEMM pair, a checksum
       update, and (Online) a post verify. *)
    let last = ref Engine.ready in
    for _k = 0 to j - 1 do
      let pre =
        if enhanced && with_ft && gate then
          verify st ~deps:[ prior_chk; !last ] ~panels:2
        else Engine.join eng [ !last ]
      in
      (* R_kj = Qk^T Aj (2 m b^2) then Aj -= Qk Rkj (2 m b^2) *)
      let ev =
        Resilient.submit res ~deps:[ pre ] ~phase:"compute" Engine.Gpu
          (Kernel.Gemm { m = st.b; n = st.b; k = st.m })
      in
      let ev =
        if cpu_m = 0 then
          Resilient.submit res ~deps:[ ev ] ~phase:"compute" Engine.Gpu
            (Kernel.Gemm { m = st.m; n = st.b; k = st.b })
        else begin
          (* the CPU slice applies Rkj to its host-resident rows; Rkj
             itself is tiny and rides a small h2d hop *)
          let r_ev =
            Resilient.transfer res ~deps:[ ev ] ~phase:"balance" ~dir:`D2h
              (st.b * st.b * 8)
          in
          let gpu_part =
            if st.m - cpu_m > 0 then
              Resilient.submit res ~deps:[ ev ] ~phase:"compute" Engine.Gpu
                (Kernel.Gemm { m = st.m - cpu_m; n = st.b; k = st.b })
            else Engine.ready
          in
          let cpu_part =
            Resilient.submit res ~deps:[ r_ev; stage_ev ] ~phase:"compute"
              Engine.Cpu
              (Kernel.Gemm { m = cpu_m; n = st.b; k = st.b })
          in
          Engine.join eng [ gpu_part; cpu_part ]
        end
      in
      if with_ft then
        chk_updates :=
          chk_update st ~deps:[ ev ] ~flops:(4. *. float_of_int st.d *. fb *. fb)
          :: !chk_updates;
      if online && with_ft then last := verify st ~deps:[ ev ] ~panels:1
      else last := ev
    done;
    (* the CPU-owned slice migrates back before the (GPU) in-panel MGS *)
    let back_ev =
      if cpu_m > 0 then
        Resilient.transfer res ~deps:[ !last ] ~phase:"balance" ~dir:`H2d
          (cpu_m * st.b * 8)
      else Engine.ready
    in
    (* in-panel MGS: ~2 m b^2 flops of BLAS-1/2, bandwidth-bound *)
    let pre_mgs =
      if enhanced && with_ft then
        verify st ~deps:[ prior_chk; !last; back_ev ] ~panels:1
      else Engine.join eng [ !last; back_ev ]
    in
    let mgs_ev =
      Resilient.submit res ~deps:[ pre_mgs ] ~phase:"compute" Engine.Gpu
        (Kernel.Gemv { m = st.m * st.b; n = st.b })
    in
    if with_ft then
      chk_updates :=
        chk_update st ~deps:[ mgs_ev ]
          ~flops:(2. *. float_of_int st.d *. fb *. fb)
        :: !chk_updates;
    if online && with_ft then ignore (verify st ~deps:[ mgs_ev ] ~panels:1);
    st.prev_chk_ready <- Engine.join eng (prior_chk :: !chk_updates)
  done;
  if offline then ignore (verify st ~deps:[ st.prev_chk_ready ] ~panels:st.nb)

let run ?(plan = []) ?(d = 2) ?policy ?(fault_seed = 0) cfg ~m ~n =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Schedule_qr.run: " ^ e));
  let b = Config.block_size cfg in
  if n <= 0 || m < n then invalid_arg "Schedule_qr.run: need m >= n > 0";
  if n mod b <> 0 then
    invalid_arg
      (Printf.sprintf "Schedule_qr.run: block %d must divide n=%d" b n);
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
      eng;
      res;
      bal;
      m;
      b;
      nb = n / b;
      d;
      streams = Config.effective_recalc_streams cfg;
      placement;
      prev_chk_ready = Engine.ready;
    }
  in
  run_pass st ~with_ft ~enhanced ~online ~offline ~kk;
  let reruns =
    Cholesky.Schedule.reruns scheme ~uncorrected:(uncorrected scheme plan) res
  in
  if reruns > 0 then run_pass st ~with_ft ~enhanced ~online ~offline ~kk;
  let makespan = Engine.makespan eng in
  let fm = float_of_int m and fn = float_of_int n in
  {
    makespan;
    gflops =
      ((2. *. fm *. fn *. fn) -. (2. *. (fn ** 3.) /. 3.)) /. makespan /. 1e9;
    reruns;
    engine = eng;
    resilience = Resilient.stats res;
    degraded = Resilient.degraded res;
  }
