(* serve-mixed — open loop against Serving.Server with 2 workers × 1
   lane. Seeded Poisson arrivals at fixed rates; each request is a
   Factor, Solve or Solve_cg of an n ∈ {128, 256} SPD system in 32-wide
   tiles, from tenant "clean" or tenant "faulty", whose requests run
   under Campaign mixed plans with snapshots and rollback on and no
   deadline.

   Small tiles make per-request fixed costs (tiling, encoding,
   comparing, checksum updates) and queueing visible; large-tile kernel
   efficiency barely matters. Each request is timed from the moment it
   was due, so a stalled server is billed for the wait it imposes on
   later arrivals, and the generator's own lateness is reported.

   The arrival rates are constants of the benchmark, never calibrated
   against the code under test: the nominal rate is where serve_p50_s
   and serve_p99_s are read; the ladder above it finds serve_max_rps,
   the highest rate whose tail latency stays within [limit_s] with no
   rejection and no growing backlog. *)

open Perfbench_core
open Matrix
module C = Cholesky
module Server = Serving.Server

let block = 32
let sizes = [| 128; 256 |]
let per_size = 4
let nominal_rps = 20.
let ladder_rps = [ 30.; 40.; 50.; 60.; 80. ]
let limit_s = 0.5

(* Share of a run's seconds spent at the nominal rate; the ladder gets
   the rest, split evenly over its rungs. A traced run splits the
   nominal share between an untraced and a traced pass. *)
let nominal_share = 0.8

let chol = C.Config.make ~block ~scheme:(Abft.Scheme.enhanced ()) ()

let faulty =
  {
    Server.clean_tenant with
    Server.weight = 1;
    plan = (fun ~n ~block ~seed -> Campaign.plan Campaign.Mixed ~seed ~grid:(n / block) ~block ~count:2);
    chol =
      Some
        (C.Config.make ~block ~scheme:(Abft.Scheme.enhanced ()) ~snapshot_interval:1
           ~max_rollbacks:2 ~max_restarts:3 ());
  }

let tenants = [ ("clean", { Server.clean_tenant with Server.weight = 3 }); ("faulty", faulty) ]

let workers = 2
let pool_domains = 1

let config ~seed = { Server.workers; pool_domains; queue_capacity = 64; chol; seed }

type kind = Factor | Solve | Cg

type req = {
  due : float;  (** seconds after the rung starts *)
  tenant : string;
  kind : kind;
  a : Mat.t;
  rhs : Vec.t;
}

type inputs = (Mat.t * Vec.t) array array

let make_inputs ~seed : inputs =
  Array.mapi
    (fun si n ->
      Array.init per_size (fun i ->
          let s = Inputs.derive ~seed ~stream:(20 + si) i in
          (Inputs.spd ~seed:s n, Inputs.vector ~seed:s n)))
    sizes

(* One block of the traffic mix: every (tenant, kind, size) class in
   fixed proportions — tenants clean:faulty 3:1, kinds
   Factor:Solve:Solve_cg 2:1:1, sizes 128:256 1:1. Arrivals draw their
   classes from shuffled blocks, so every seed offers exactly the same
   mix and only the order and the inputs vary. *)
let mix =
  List.concat_map
    (fun tenant ->
      List.concat_map
        (fun kind -> List.map (fun size -> (tenant, kind, size)) [ 0; 1 ])
        [ Factor; Factor; Solve; Cg ])
    [ "clean"; "clean"; "clean"; "faulty" ]

let shuffled st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Poisson arrivals at [rate] over [duration] seconds. *)
let schedule (inputs : inputs) ~seed ~rung ~rate ~duration =
  let st = Random.State.make [| seed; rung; 0x5e7e |] in
  let block = ref [||] and pos = ref 0 in
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float st 1.) /. rate) in
    if t >= duration then List.rev acc
    else begin
      if !pos = Array.length !block then begin
        block := shuffled st mix;
        pos := 0
      end;
      let tenant, kind, size = !block.(!pos) in
      incr pos;
      let a, rhs = inputs.(size).(Random.State.int st per_size) in
      go t ({ due = t; tenant; kind; a; rhs } :: acc)
    end
  in
  go 0. []

let work r =
  match r.kind with
  | Factor -> Server.Factor r.a
  | Solve -> Server.Solve { a = r.a; rhs = r.rhs }
  | Cg -> Server.Solve_cg { a = r.a; rhs = r.rhs }

type settled = {
  n : int;  (** order of the request's system *)
  latency : float;  (** due → completion *)
  wait : float;
  service : float;
  outcome : Tally.outcome;
}

type rung_result = {
  rate : float;
  settled : settled list;  (** in arrival order *)
  rejected_overloaded : int;
  rejected_other : int;
  submit : float list;  (** seconds spent inside [Server.submit] *)
  late : float list;  (** how late the generator submitted each request *)
}

let check_completed r (report : C.Ft.report) solution =
  let l = report.C.Ft.factor in
  (match report.C.Ft.outcome with C.Ft.Success -> true | _ -> false)
  && Check.is_cholesky_shaped l
  && Check.ok_below Check.factor_tol (Check.cholesky_residual ~a:r.a ~l)
  &&
  match (r.kind, solution) with
  | Factor, _ -> true
  | (Solve | Cg), Some x -> Check.ok_below Check.solve_tol (Check.solve_residual ~a:r.a ~x ~b:r.rhs)
  | (Solve | Cg), None -> false

(* Offer one rung's schedule, then await and check every request. The
   checks run after the last request settled, so they never compete
   with the workers. *)
let offer srv reqs ~rate =
  let t0 = Report.now () in
  let rejected_overloaded = ref 0 and rejected_other = ref 0 in
  let submit = ref [] and late = ref [] in
  let tickets =
    List.filter_map
      (fun r ->
        let due = t0 +. r.due in
        let dt = due -. Report.now () in
        if dt > 0. then Unix.sleepf dt;
        let t_sub = Report.now () in
        let res = Server.submit srv ~tenant:r.tenant (work r) in
        submit := (Report.now () -. t_sub) :: !submit;
        late := (t_sub -. due) :: !late;
        match res with
        | Ok tk -> Some (r, due, t_sub, tk)
        | Error (Server.Overloaded _) -> incr rejected_overloaded; None
        | Error _ -> incr rejected_other; None)
      reqs
  in
  let outcomes = List.map (fun (r, due, t_sub, tk) -> (r, due, t_sub, Server.await srv tk)) tickets in
  let settled =
    List.map
      (fun (r, due, t_sub, o) ->
        match o with
        | Server.Completed { report; solution; wait_s; service_s; _ } ->
            let ok = check_completed r report solution in
            {
              n = r.a.Mat.rows;
              latency = t_sub -. due +. wait_s +. service_s;
              wait = wait_s;
              service = service_s;
              outcome = (if ok then Tally.Ok else Tally.Wrong);
            }
        | Server.Deadline_exceeded { elapsed_s; _ } ->
            { n = r.a.Mat.rows; latency = elapsed_s; wait = 0.; service = 0.; outcome = Tally.Deadline }
        | Server.Cancelled { elapsed_s; _ } | Server.Failed { elapsed_s; _ } ->
            { n = r.a.Mat.rows; latency = elapsed_s; wait = 0.; service = 0.; outcome = Tally.Failed })
      outcomes
  in
  {
    rate;
    settled;
    rejected_overloaded = !rejected_overloaded;
    rejected_other = !rejected_other;
    submit = !submit;
    late = !late;
  }

let ok_latencies ?n rr =
  List.filter_map
    (fun s ->
      if s.outcome = Tally.Ok && Option.fold ~none:true ~some:(Int.equal s.n) n then Some s.latency
      else None)
    rr.settled

let to_ladder rr =
  {
    Ladder.rate = rr.rate;
    latencies = ok_latencies rr;
    overloaded = rr.rejected_overloaded;
    failed = rr.rejected_other + List.length (List.filter (fun s -> s.outcome <> Tally.Ok) rr.settled);
  }

(* Start a server and settle one request of each kind and size on it,
   so no measured request pays for a cold start. *)
let warm_server ?obs ~seed (inputs : inputs) =
  let srv = Server.create ?obs (config ~seed) tenants in
  Array.iter
    (fun per ->
      let a, rhs = per.(0) in
      List.iter
        (fun kind ->
          match Server.submit srv ~tenant:"clean" (work { due = 0.; tenant = "clean"; kind; a; rhs }) with
          | Ok tk -> ignore (Server.await srv tk)
          | Error _ -> ())
        [ Factor; Solve; Cg ])
    inputs;
  srv

(* The server layer's per-layer metrics: the nominal schedule offered
   for [duration] to a fresh server whose sink records every request.
   fault-storm's traced run calls this too, so the layer stays traced on
   a gated workload. *)
let traced_rung ~seed inputs ~duration ~tally =
  let obs = Obs.create () in
  let srv = warm_server ~obs ~seed inputs in
  let traced =
    offer srv ~rate:nominal_rps (schedule inputs ~seed ~rung:0 ~rate:nominal_rps ~duration)
  in
  Server.shutdown srv ~drain:true;
  List.iter (fun s -> Tally.record tally s.outcome) traced.settled;
  let q p xs = if xs = [] then 0. else Stats.quantile p xs in
  let hist name =
    Option.fold ~none:0. ~some:(fun h -> h.Obs.maxv) (List.assoc_opt name (Obs.hists obs))
  in
  let ctr name = Option.value ~default:0. (List.assoc_opt name (Obs.counters obs)) in
  let waits = List.map (fun s -> s.wait) traced.settled in
  let services = List.map (fun s -> s.service) traced.settled in
  ( traced,
    [
      ("server.wait_p50_s", q 0.5 waits);
      ("server.wait_p99_s", q 0.99 waits);
      ("server.service_p50_s", q 0.5 services);
      ("server.service_p99_s", q 0.99 services);
      ("server.submit_p99_s", q 0.99 traced.submit);
      ("server.queue_depth_max", hist "server.queue_depth");
      ( "server.rejected",
        ctr "server.rejected.overloaded" +. ctr "server.rejected.quota"
        +. ctr "server.rejected.breaker" +. ctr "server.rejected.other" );
      ("server.breaker_trips", ctr "server.breaker_trips");
      ("server.gen_late_p99_s", q 0.99 traced.late);
    ] )

let run ~seed ~seconds ~trace =
  (* set-up: inputs and a server start; the warm-up requests run
     untimed, since their speed swings with the server instance *)
  let inputs, setup_ts =
    Report.setup ~reps:Report.setup_reps
      (fun () ->
        let inputs = make_inputs ~seed in
        Server.shutdown (Server.create (config ~seed) tenants) ~drain:true;
        inputs)
  in
  let tally = Tally.create () in
  let nominal_s = seconds *. nominal_share /. if trace then 2. else 1. in
  let rung_s = seconds *. (1. -. nominal_share) /. float_of_int (List.length ladder_rps) in
  let srv = warm_server ~seed inputs in
  let nominal =
    offer srv ~rate:nominal_rps (schedule inputs ~seed ~rung:0 ~rate:nominal_rps ~duration:nominal_s)
  in
  (* every nominal-rate request counts, refusals included *)
  List.iter (fun s -> Tally.record tally s.outcome) nominal.settled;
  for _ = 1 to nominal.rejected_overloaded + nominal.rejected_other do
    Tally.record tally Tally.Refused
  done;
  (* ladder rungs probe capacity: a rejection there is the measured
     signal, not a failed operation, but every accepted request is
     checked and counted. The ladder stops at its first failing rung. *)
  let rec climb k acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let rr = offer srv ~rate (schedule inputs ~seed ~rung:k ~rate ~duration:rung_s) in
        List.iter (fun s -> Tally.record tally s.outcome) rr.settled;
        let acc = rr :: acc in
        if Ladder.passes (Ladder.judge ~limit_s (to_ladder rr)) then climb (k + 1) acc rest
        else List.rev acc
  in
  let ladder = climb 1 [] ladder_rps in
  let counters = Server.counters srv in
  Server.shutdown srv ~drain:true;
  let lat = ok_latencies nominal in
  let service = List.map (fun s -> s.service) nominal.settled in
  let max_rps = Ladder.max_rps ~limit_s (List.map to_ladder (nominal :: ladder)) in
  (* the traced run: the nominal schedule again, against a fresh server
     whose sink records every request *)
  let layers =
    if not trace then []
    else
      let traced, server = traced_rung ~seed inputs ~duration:nominal_s ~tally in
      server
      @ [
          ("server.latency_tail_s", Option.fold ~none:0. ~some:snd (Stats.tail lat));
          ("server.max_rps", max_rps);
          ("obs.tracing_overhead_s", Stats.median (ok_latencies traced) -. Stats.median lat);
        ]
  in
  Printf.printf "%s\n" (Report.timing_line "serve latency (nominal)" lat);
  Array.iter
    (fun n ->
      Printf.printf "%s\n"
        (Report.timing_line (Printf.sprintf "serve latency n=%d" n) (ok_latencies ~n nominal));
      Printf.printf "%s\n"
        (Report.timing_line (Printf.sprintf "serve service n=%d" n)
           (List.filter_map (fun s -> if s.n = n then Some s.service else None) nominal.settled)))
    sizes;
  Printf.printf "%s\n" (Report.timing_line "serve service (nominal)" service);
  Printf.printf "%s\n" (Report.timing_line "generator lateness" nominal.late);
  Printf.printf "%s\n" (Report.gated_line "setup_s" setup_ts);
  List.iter
    (fun rr ->
      Format.printf "ladder %5.1f req/s: %d settled, %a@." rr.rate (List.length rr.settled)
        Ladder.pp_verdict (Ladder.judge ~limit_s (to_ladder rr)))
    (nominal :: ladder);
  Printf.printf "server counters: accepted %d, completed %d, rejected %d, breaker trips %d\n"
    counters.Server.accepted counters.Server.completed
    (counters.Server.rejected_overloaded + counters.Server.rejected_quota
    + counters.Server.rejected_breaker + counters.Server.rejected_other)
    counters.Server.breaker_trips;
  let tail_name, tail_v =
    match Stats.tail lat with
    | Some (p, v) -> ("serve_" ^ Stats.percentile_label p ^ "_s", v)
    | None -> ("serve_max_s", List.fold_left Float.max 0. lat)
  in
  let named =
    [
      Report.metric "setup_s" "s" (Stats.median (Report.raws setup_ts));
      Report.metric "serve_p50_s" "s" (Stats.median lat);
      Report.metric tail_name "s" tail_v;
      Report.metric "serve_max_rps" "req/s" max_rps;
      Report.metric ~clock:Report.Derived "fail_share" "ratio" (Tally.fail_share tally);
    ]
  in
  {
    Report.workload = "serve-mixed";
    e2e =
      (if trace then []
       else
         [
           Report.metric "setup_s" "s" (Report.gated setup_ts);
           (* raw: no reference kernel tracked these latencies (see
              README.md), which is why this workload is not gated *)
           Report.metric "op_s" "s" (Stats.median (ok_latencies ~n:sizes.(1) nominal));
           Report.metric "alt_op_s" "s" (Stats.median (ok_latencies ~n:sizes.(0) nominal));
         ]);
    named;
    layers;
    tally;
    lanes = workers * pool_domains;
    timings = [ ("setup_s", setup_ts) ];
  }
