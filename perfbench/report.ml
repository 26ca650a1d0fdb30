(* Metrics, their catalogue, and the result document.

   Every run prints, in order: one line per timing and per metric
   (name, value, unit, clock), the JSON result document (fingerprint,
   references, raw medians), and as its last line the JSON result
   object — the end-to-end metrics for an untraced run, the per-layer
   metrics for a traced one. *)

open Perfbench_core

type clock = Wall | Virtual | Derived

let clock_name = function
  | Wall -> "wall"
  | Virtual -> "virtual"
  | Derived -> "-"

type metric = { name : string; value : float; unit_ : string; clock : clock }

let metric ?(clock = Wall) name unit_ value = { name; value; unit_; clock }

(* The per-layer metrics a traced run reports, on every workload; a
   layer a workload does not exercise reads 0 there. *)
let hetsim_phases =
  [ "compute"; "chk-update"; "chk-recalc"; "chk-encode"; "chk-compare"; "chk-transfer" ]

let per_layer =
  [
    ("cholesky.residual_s", "s");
    ("cholesky.residual_share", "ratio");
    ("cholesky.init_s", "s");
    ("cholesky.snapshot_s", "s");
    ("cholesky.rollback_s", "s");
    ("cholesky.rollbacks", "count/op");
    ("cholesky.restarts", "count/op");
    ("cholesky.recovery_overhead", "ratio");
    ("matrix.gemm_s", "s");
    ("matrix.syrk_s", "s");
    ("matrix.trsm_s", "s");
    ("matrix.potf2_s", "s");
    ("matrix.gemm_gflops", "GF/s");
    ("matrix.bytes_moved_computed", "B/op");
    ("parallel.tasks", "count/op");
    ("parallel.inline_batches", "count/op");
    ("parallel.busy_ratio", "ratio");
    ("abft.encode_s", "s");
    ("abft.compare_s", "s");
    ("abft.chk_update_s", "s");
    ("abft.verifications", "count/op");
    ("abft.corrections", "count/op");
    ("abft.reconstructions", "count/op");
    ("abft.checksum_repairs", "count/op");
    ("fault.fired", "count");
    ("fault.fired_per_op", "count/op");
    ("lu.factor_s", "s");
    ("lu.verifications", "count/op");
    ("lu.restarts", "count/op");
    ("qr.factor_s", "s");
    ("qr.verifications", "count/op");
    ("qr.restarts", "count/op");
    ("solvers.solve_s", "s");
    ("solvers.iterations", "count/op");
    ("solvers.verifications", "count/op");
    ("solvers.detections", "count/op");
    ("solvers.rollbacks", "count/op");
    ("solvers.restarts", "count/op");
    ("solvers.useful_iter_ratio", "ratio");
    ("solvers.verify_s", "s");
    ("server.latency_tail_s", "s");
    ("server.max_rps", "req/s");
    ("server.wait_p50_s", "s");
    ("server.wait_p99_s", "s");
    ("server.service_p50_s", "s");
    ("server.service_p99_s", "s");
    ("server.submit_p99_s", "s");
    ("server.queue_depth_max", "count");
    ("server.rejected", "count");
    ("server.breaker_trips", "count");
    ("server.gen_late_p99_s", "s");
    ("hetsim.engine_ops", "count");
    ("hetsim.host_us_per_op", "us");
  ]
  @ List.map (fun p -> ("hetsim.phase." ^ p ^ "_s", "s")) hetsim_phases
  @ [
      ("hetsim.gpu_util", "ratio");
      ("hetsim.retries", "count");
      ("hetsim.quarantines", "count");
      ("hetsim.resplits", "count");
      ("hetsim.virt_enhanced_overhead_pct", "%");
      ("hetsim.virt_storm_makespan_s", "s");
      ("obs.tracing_overhead_s", "s");
      ("obs.span_coverage", "ratio");
      ("fail_share", "ratio");
    ]

(* Flat accumulator for traced totals: key → running sum. *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add (t : t) k v =
    Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k))

  let get (t : t) k = Option.value ~default:0. (Hashtbl.find_opt t k)

  (* Fold a finished sink into [t]: each op's summed seconds under
     ["op:" ^ op], each counter under ["ctr:" ^ name]. *)
  let add_obs (t : t) obs =
    List.iter (fun (op, (s, _)) -> add t ("op:" ^ op) s) (Obs.op_totals obs);
    List.iter (fun (c, v) -> add t ("ctr:" ^ c) v) (Obs.counters obs)

  let ops (t : t) names = List.fold_left (fun a n -> a +. get t ("op:" ^ n)) 0. names

  (* Summed seconds of every op whose name starts with [prefix]. *)
  let ops_prefix (t : t) prefix =
    let key = "op:" ^ prefix in
    Hashtbl.fold
      (fun k v a -> if String.starts_with ~prefix:key k then a +. v else a)
      t 0.
  let ctr (t : t) name = get t ("ctr:" ^ name)
end

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* A gated timing: the raw wall seconds and the reference kernel's
   time taken next to it (see Calib). *)
type timed = { raw : float; reference : float }

type result = {
  workload : string;
  e2e : metric list;
      (** the gated metrics, setup_s, op_s and alt_op_s; what each
          measures on each workload is listed in README.md *)
  named : metric list;
      (** the workload's metrics under their catalogue names, for the
          human-readable report *)
  layers : (string * float) list;  (** per-layer values, traced runs *)
  tally : Tally.t;
  lanes : int;  (** domains the timed operations run on *)
  timings : (string * timed list) list;
      (** the timings behind the gated metrics, by name, for the
          result document *)
}

(* Time [f] right after [refs] reference samples, whose median becomes
   the timing's reference. *)
let time_ref ?(refs = 1) f =
  let reference = Stats.median (Perfbench_ref.Calib.samples refs) in
  let r, raw = time f in
  (r, { raw; reference })

let normalized t = Perfbench_ref.Calib.normalize ~raw:t.raw ~ref:t.reference

(* The gated value of a timing: the median of its normalized samples. *)
let gated ts = Stats.median (List.map normalized ts)
let raws ts = List.map (fun t -> t.raw) ts

(* A fresh major heap before each closed-loop operation, outside the
   timed region: one operation's garbage is not billed to the next. *)
let settle () = Gc.full_major ()

(* Set-up is repeated [reps] times and each repetition timed against
   the reference; the last repetition's state is the one the run
   measures with. [teardown] releases the state of the discarded
   repetitions, and each repetition starts from a fresh major heap, so
   none collects the garbage of the one before. [setup_reps] is the
   usual count; a workload whose set-up takes a few tens of
   milliseconds repeats it more often. *)
let setup_reps = 5

let setup ~reps ?(teardown = ignore) f =
  let rec go k times =
    settle ();
    let st, t = time_ref ~refs:3 f in
    if k >= reps then (st, t :: times)
    else begin
      teardown st;
      go (k + 1) (t :: times)
    end
  in
  go 1 []

(* Closed-loop driver: run [step i] until [seconds] have elapsed (at
   least [min_ops] times). *)
let closed_loop ?(min_ops = 1) ~seconds step =
  let t_end = now () +. seconds in
  let rec go i = if i < min_ops || now () < t_end then (step i; go (i + 1)) in
  go 0

let timing_line name samples =
  let n = List.length samples in
  let med = Stats.median samples in
  match Stats.tail samples with
  | Some (p, v) when p > 0.5 ->
      Printf.sprintf "%-32s median %.6f s  %s %.6f s  (n=%d)" name med
        (Stats.percentile_label p) v n
  | _ -> Printf.sprintf "%-32s median %.6f s  (n=%d)" name med n

(* A gated timing's report line: raw median (with its supported tail
   and count) and the normalized median the result object carries. *)
let gated_line name ts =
  Printf.sprintf "%s  normalized %.6f s" (timing_line name (raws ts)) (gated ts)


let print_metric m =
  Printf.printf "%-36s %16.6f %-8s %s\n" m.name m.value m.unit_
    (clock_name m.clock)

(* The result document, printed just before the result object, whose
   key set is fixed: the host fingerprint and, per workload, its lanes,
   the median of every reference sample its gated timings were taken
   next to, and each gated timing's raw and normalized medians. A shift
   in the reference shows here next to the normalized values it
   produced. *)
let json_document ~fingerprint results =
  let obj fields =
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> Obs.Json.quote k ^ ": " ^ v) fields)
    ^ "}"
  in
  let num = Obs.Json.number in
  let timing ts =
    obj
      [
        ("n", string_of_int (List.length ts));
        ("raw_median_s", num (Stats.median (raws ts)));
        ("normalized_median_s", num (gated ts));
      ]
  in
  let workload r =
    (* a traced factor-large run times no No_ft factorization *)
    let timings = List.filter (fun (_, ts) -> ts <> []) r.timings in
    let refs = List.concat_map (fun (_, ts) -> List.map (fun t -> t.reference) ts) timings in
    obj
      [
        ("workload", Obs.Json.quote r.workload);
        ("lanes", string_of_int r.lanes);
        ("reference_median_s", num (Stats.median refs));
        ("timings", obj (List.map (fun (name, ts) -> (name, timing ts)) timings));
      ]
  in
  obj
    [
      ("fingerprint", obj (List.map (fun (k, v) -> (k, Obs.Json.quote v)) fingerprint));
      ("workloads", "[" ^ String.concat ", " (List.map workload results) ^ "]");
    ]

let json_result ~correct ~(tally : Tally.t) metrics =
  let field (name, value, unit_) =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs.Json.quote name)
      (Obs.Json.number value) (Obs.Json.quote unit_)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct tally.Tally.attempted (Tally.bad tally)
    (String.concat ", " (List.map field metrics))
