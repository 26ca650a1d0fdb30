let src = Logs.Src.create "ftchol.recovery" ~doc:"FT recovery ladder events"

module Log = (val Logs.src_log src : Logs.LOG)

type reason =
  | Fail_stop of { iteration : int; column : int }
  | Uncorrectable_block of { block : int * int; detail : string }
  | Final_mismatch of { block : int * int; detail : string }

exception Error of reason

let is_fail_stop = function
  | Fail_stop _ -> true
  | Uncorrectable_block _ | Final_mismatch _ -> false

let describe = function
  | Fail_stop { iteration; column } ->
      Printf.sprintf
        "fail-stop: diagonal factorization broke down at iteration %d, \
         column %d"
        iteration column
  | Uncorrectable_block { block = i, c; detail } ->
      Printf.sprintf "block (%d,%d): %s" i c detail
  | Final_mismatch { block = i, c; detail } ->
      Printf.sprintf "final verify (%d,%d): %s" i c detail

let pp fmt r = Format.pp_print_string fmt (describe r)

type outcome = Success | Silent_corruption | Gave_up of reason

type stats = {
  verifications : int; corrections : int; reconstructions : int;
  checksum_repairs : int; uncorrectable_events : int; fail_stops : int;
  rollbacks : int; snapshots : int; restarts : int;
}

let residual_threshold = 1e-6

let classify failure ~residual =
  match failure with
  | Some reason -> Gave_up reason
  | None ->
      if residual <= residual_threshold then Success else Silent_corruption

let pp_outcome fmt = function
  | Success -> Format.pp_print_string fmt "success"
  | Silent_corruption -> Format.pp_print_string fmt "silent corruption"
  | Gave_up reason -> Format.fprintf fmt "gave up: %a" pp reason

let pp_stats fmt s =
  Format.fprintf fmt
    "verifications: %d, corrections: %d, reconstructions: %d, checksum \
     repairs: %d@,rollbacks: %d (snapshots: %d), restarts: %d, \
     uncorrectable: %d, fail-stops: %d"
    s.verifications s.corrections s.reconstructions s.checksum_repairs
    s.rollbacks s.snapshots s.restarts s.uncorrectable_events s.fail_stops

(* The running tally of one factorization. The verification counters
   ([verifications] … [checksum_repairs]) restart with every attempt;
   the rest are whole-run totals. [snapshot] is the attempt's latest
   verified rollback target, if the driver takes any. *)
type snapshot = { iteration : int; restore : unit -> unit }

type tally = {
  mutable now : stats;
  mutable snapshot : snapshot option;
}

let current t = t.now

let count_verification t =
  t.now <- { t.now with verifications = t.now.verifications + 1 }

(* Located-and-patched elements and plain-sum reconstructions are
   different rungs of the inline ladder, so count them apart. *)
let count_fixes t fixes =
  List.iter
    (fun (f : Abft.Verify.correction) ->
      match f.Abft.Verify.source with
      | Abft.Verify.Located ->
          t.now <- { t.now with corrections = t.now.corrections + 1 }
      | Abft.Verify.Reconstructed ->
          t.now <- { t.now with reconstructions = t.now.reconstructions + 1 })
    fixes

let absorb ?(final = false) t ~block outcome =
  let i, c = block in
  match outcome with
  | Abft.Verify.Clean -> ()
  | Abft.Verify.Corrected fixes ->
      Log.info (fun m ->
          m "corrected %d element(s) in block (%d,%d)" (List.length fixes) i c);
      count_fixes t fixes
  | Abft.Verify.Checksum_repaired { cells; corrections } ->
      Log.info (fun m ->
          m "repaired %d checksum cell(s) of block (%d,%d) (+%d tile fix(es))"
            cells i c (List.length corrections));
      t.now <- { t.now with checksum_repairs = t.now.checksum_repairs + 1 };
      count_fixes t corrections
  | Abft.Verify.Uncorrectable detail ->
      Log.warn (fun m -> m "uncorrectable at block (%d,%d): %s" i c detail);
      raise
        (Error
           (if final then Final_mismatch { block; detail }
            else Uncorrectable_block { block; detail }))

let verified ?final t ~block outcome =
  count_verification t;
  absorb ?final t ~block outcome

let checked t ~block ok =
  count_verification t;
  if not ok then
    raise (Error (Final_mismatch { block; detail = "mismatch at end of run" }))

let snapshot t ~iteration ~restore =
  t.snapshot <- Some { iteration; restore };
  t.now <- { t.now with snapshots = t.now.snapshots + 1 }

let run ?(max_rollbacks = 0) ~max_restarts start =
  let t =
    {
      now =
        {
          verifications = 0; corrections = 0; reconstructions = 0;
          checksum_repairs = 0; uncorrectable_events = 0; fail_stops = 0;
          rollbacks = 0; snapshots = 0; restarts = 0;
        };
      snapshot = None;
    }
  in
  let rec attempt k =
    t.now <-
      {
        t.now with
        verifications = 0; corrections = 0; reconstructions = 0;
        checksum_repairs = 0; restarts = k;
      };
    t.snapshot <- None;
    let st, go = start t in
    let rec from iteration rollbacks_here =
      match go ~from:iteration with
      | () -> (st, t.now, None)
      | exception Error reason -> (
          t.now <-
            {
              t.now with
              uncorrectable_events = t.now.uncorrectable_events + 1;
              fail_stops =
                (t.now.fail_stops + if is_fail_stop reason then 1 else 0);
            };
          match t.snapshot with
          | Some s when rollbacks_here < max_rollbacks ->
              t.now <- { t.now with rollbacks = t.now.rollbacks + 1 };
              Log.warn (fun m ->
                  m "attempt %d failed (%s); rolling back to iteration %d" k
                    (describe reason) s.iteration);
              s.restore ();
              from s.iteration (rollbacks_here + 1)
          | _ ->
              Log.warn (fun m ->
                  m "attempt %d failed (%s); recovering by recomputation" k
                    (describe reason));
              (* Discard this attempt's state; retry on pristine data
                 (transient injections do not re-fire). *)
              if k < max_restarts then attempt (k + 1)
              else (st, t.now, Some reason))
    in
    from 0 0
  in
  attempt 0
