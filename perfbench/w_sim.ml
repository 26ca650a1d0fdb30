(* sim-paper — repeated passes of Cholesky.Schedule.run over the paper's
   experiments: both testbeds × the size sweep (5120…23040 on tardis,
   5120…30720 on bulldozer64, step 2560) × {No_ft, Offline, Online,
   Enhanced-k1}, plus the canonical GPU storm (rate 1.0) at n=10240
   under adaptive balancing over ten fixed fault seeds per testbed.

   The only workload that uses hetsim. Its virtual results are
   deterministic, so every pass must reproduce the first one bit for
   bit, and the Table VII cell must equal a direct run configured the
   way the bench harness's table7 configures it; any difference is a
   behaviour change, not noise. Host time measures the simulator. *)

open Perfbench_core
module C = Cholesky

let storm_n = 10240
let storm_seeds = List.init 10 (fun i -> i + 1)
let table7_n = 20480

let sizes (m : Hetsim.Machine.t) =
  let top = if m == Hetsim.Machine.tardis then 23040 else 30720 in
  List.init (((top - 5120) / 2560) + 1) (fun i -> 5120 + (2560 * i))

let testbeds = [ Hetsim.Machine.tardis; Hetsim.Machine.bulldozer64 ]
let schemes = [ Abft.Scheme.No_ft; Abft.Scheme.Offline; Abft.Scheme.Online; Abft.Scheme.enhanced () ]

let sweep_jobs =
  List.concat_map
    (fun machine ->
      List.concat_map
        (fun n -> List.map (fun scheme -> (C.Config.make ~machine ~scheme (), n)) schemes)
        (sizes machine))
    testbeds

(* Quarantined GPUs get the half-open re-probe, as in the balance
   bench's storm comparison. *)
let storm_policy = { Hetsim.Resilient.default_policy with Hetsim.Resilient.reprobe_after_s = 0.05 }

let storm_jobs =
  List.concat_map
    (fun machine ->
      let m = Machine_cli.apply_device_faults ~rate:1.0 machine in
      let cfg =
        C.Config.make ~machine:m ~scheme:(Abft.Scheme.enhanced ())
          ~balance:Hetsim.Load_balancer.Adaptive ()
      in
      List.map (fun seed -> (cfg, seed)) storm_seeds)
    testbeds

(* What one pass produced in virtual time: compared bit for bit across
   passes. *)
type virt = {
  makespans : float list;  (** sweep then storm, in job order *)
  ops : int;  (** engine operations, all jobs *)
  storm_makespan : float;
  resilience : int * int * int;  (** retries, quarantines, resplits *)
}

let same_virt a b =
  List.equal Float.equal a.makespans b.makespans
  && a.ops = b.ops
  && Float.equal a.storm_makespan b.storm_makespan
  && a.resilience = b.resilience

type pass = {
  virt : virt;
  sweep_s : float;
  storm_s : float;
  failed : int;
  reference : float;  (** reference kernel time next to the pass *)
}

let pass ?(obs = Obs.null) () =
  let sweep, sweep_s =
    Report.time (fun () -> List.map (fun (cfg, n) -> C.Schedule.run ~obs cfg ~n) sweep_jobs)
  in
  let storm, storm_s =
    Report.time (fun () ->
        List.map
          (fun (cfg, seed) ->
            (match C.Schedule.run ~obs ~policy:storm_policy ~fault_seed:seed cfg ~n:storm_n with
            | r -> Some r
            | exception Hetsim.Resilient.Gave_up _ -> None)
            [@abft.waive
              "accounted by value: the None is counted as a failed operation \
               in the run's tally"])
          storm_jobs)
  in
  let done_storm = List.filter_map Fun.id storm in
  let results = sweep @ done_storm in
  let sum f = List.fold_left (fun a r -> a + f r) 0 done_storm in
  let res f = sum (fun r -> f r.C.Schedule.resilience) in
  let virt =
    {
      makespans = List.map (fun r -> r.C.Schedule.makespan) results;
      ops = List.fold_left (fun a r -> a + Hetsim.Engine.op_count r.C.Schedule.engine) 0 results;
      storm_makespan = List.fold_left (fun a r -> a +. r.C.Schedule.makespan) 0. done_storm;
      resilience =
        ( res (fun s ->
              s.Hetsim.Resilient.cpu.Hetsim.Resilient.retries
              + s.Hetsim.Resilient.gpu.Hetsim.Resilient.retries),
          res (fun s -> Option.fold ~none:0 ~some:(fun _ -> 1) s.Hetsim.Resilient.gpu.Hetsim.Resilient.quarantined_at),
          res (fun s -> s.Hetsim.Resilient.resplits) );
    }
  in
  {
    virt;
    sweep_s;
    storm_s;
    failed = List.length storm - List.length done_storm;
    reference = Float.nan;
  }

(* The Table VII cell, configured exactly as the bench harness's table7
   configures it (machine-default block, both optimizations, automatic
   placement), run on its own. *)
let table7 scheme =
  C.Schedule.run
    (C.Config.make ~machine:Hetsim.Machine.tardis ~scheme ~block:0 ~opt1:true
       ~opt2:C.Config.Auto ())
    ~n:table7_n

let sweep_makespan (v : virt) scheme =
  let rec find jobs ms =
    match (jobs, ms) with
    | (cfg, n) :: _, m :: _
      when n = table7_n
           && cfg.C.Config.machine == Hetsim.Machine.tardis
           && Abft.Scheme.name cfg.C.Config.scheme = Abft.Scheme.name scheme ->
        Some m
    | _ :: jobs, _ :: ms -> find jobs ms
    | _ -> None
  in
  find sweep_jobs v.makespans

let run ~seed:_ ~seconds ~trace =
  (* set-up: build nothing the passes do not rebuild, then one warm-up
     pass whose virtual results every later pass must reproduce *)
  let reference, setup_ts = Report.setup ~reps:Report.setup_reps (fun () -> pass ()) in
  let tally = Tally.create () in
  let passes = ref [] and traced = ref [] in
  let acc = Report.Acc.create () in
  Report.closed_loop ~min_ops:2 ~seconds (fun i ->
      let obs = if trace && i mod 2 = 0 then Obs.create () else Obs.null in
      let refs = Perfbench_ref.Calib.samples 3 in
      let p = pass ~obs () in
      let p = { p with reference = Stats.median refs } in
      let good = same_virt p.virt reference.virt in
      for _ = 1 to List.length sweep_jobs + List.length storm_jobs - p.failed do
        Tally.record tally (if good then Tally.Ok else Tally.Wrong)
      done;
      for _ = 1 to p.failed do
        Tally.record tally Tally.Failed
      done;
      if Obs.enabled obs then begin
        Report.Acc.add_obs acc obs;
        traced := p :: !traced
      end
      else passes := p :: !passes);
  let enh = Abft.Scheme.enhanced () in
  let t_enh = table7 enh and t_base = table7 Abft.Scheme.No_ft in
  let table7_agrees =
    let agrees scheme (t : C.Schedule.result) =
      Option.equal Float.equal (sweep_makespan reference.virt scheme) (Some t.C.Schedule.makespan)
    in
    agrees enh t_enh && agrees Abft.Scheme.No_ft t_base
  in
  Tally.record tally (if table7_agrees then Tally.Ok else Tally.Wrong);
  let per_sweep p =
    { Report.raw = p.sweep_s /. float_of_int (List.length sweep_jobs); reference = p.reference }
  in
  let per_storm p =
    { Report.raw = p.storm_s /. float_of_int (List.length storm_jobs); reference = p.reference }
  in
  let pass_s p = p.sweep_s +. p.storm_s in
  let runs = List.length !passes * (List.length sweep_jobs + List.length storm_jobs) in
  let runs_per_s = float_of_int runs /. List.fold_left (fun a p -> a +. pass_s p) 0. !passes in
  let overhead_pct =
    (t_enh.C.Schedule.makespan -. t_base.C.Schedule.makespan) /. t_base.C.Schedule.makespan *. 100.
  in
  let v = reference.virt in
  let retries, quarantines, resplits = v.resilience in
  let e = t_enh.C.Schedule.engine in
  let layers =
    if not trace then []
    else
      [
        ("hetsim.engine_ops", float_of_int v.ops);
        ("hetsim.host_us_per_op", Stats.median (List.map pass_s !passes) /. float_of_int v.ops *. 1e6);
      ]
      @ List.map
          (fun p -> ("hetsim.phase." ^ p ^ "_s", Hetsim.Engine.phase_time e p))
          Report.hetsim_phases
      @ [
          ( "hetsim.gpu_util",
            Option.value ~default:0. (List.assoc_opt Hetsim.Engine.Gpu (Hetsim.Engine.utilization e)) );
          ("hetsim.retries", float_of_int retries);
          ("hetsim.quarantines", float_of_int quarantines);
          ("hetsim.resplits", float_of_int resplits);
          ("hetsim.virt_enhanced_overhead_pct", overhead_pct);
          ("hetsim.virt_storm_makespan_s", v.storm_makespan);
          ( "obs.tracing_overhead_s",
            Stats.median (List.map pass_s !traced) -. Stats.median (List.map pass_s !passes) );
        ]
  in
  Printf.printf "%s\n" (Report.gated_line "host s per sweep run" (List.map per_sweep !passes));
  Printf.printf "%s\n" (Report.gated_line "host s per storm run" (List.map per_storm !passes));
  Printf.printf "%s\n" (Report.gated_line "setup_s" setup_ts);
  Printf.printf "table7 tardis %d: enhanced %.4f s, no_ft %.4f s (sweep agrees: %b)\n" table7_n
    t_enh.C.Schedule.makespan t_base.C.Schedule.makespan table7_agrees;
  let named =
    [
      Report.metric "setup_s" "s" (Stats.median (Report.raws setup_ts));
      Report.metric "sim_runs_per_s" "runs/s" runs_per_s;
      Report.metric ~clock:Report.Virtual "virt_enhanced_overhead_pct" "%" overhead_pct;
      Report.metric ~clock:Report.Virtual "virt_storm_makespan_s" "s" v.storm_makespan;
      Report.metric ~clock:Report.Derived "fail_share" "ratio" (Tally.fail_share tally);
    ]
  in
  {
    Report.workload = "sim-paper";
    e2e =
      (if trace then []
       else
         [
           Report.metric "setup_s" "s" (Report.gated setup_ts);
           Report.metric "op_s" "s" (Report.gated (List.map per_sweep !passes));
           Report.metric "alt_op_s" "s" (Report.gated (List.map per_storm !passes));
         ]);
    named;
    layers;
    tally;
    lanes = 1;
    timings =
      [
        ("setup_s", setup_ts);
        ("sweep_run_s", List.map per_sweep !passes);
        ("storm_run_s", List.map per_storm !passes);
      ];
  }
