(** The recovery ladder shared by every numeric FT driver.

    The paper has one recovery policy: locate and correct in place,
    otherwise recompute. This module is that policy, written once for
    the Cholesky ({!Ft}, {!Right_looking}), LU and QR drivers. A driver
    supplies its tile steps and checksum kind, reports each
    verification through a {!tally}, and raises {!Error} when an
    attempt cannot continue. {!run} then climbs the rungs, cheapest
    first:

    + {e inline correction} ([stats.corrections]) and {e plain-sum
      reconstruction} of an overwhelmed element
      ([stats.reconstructions]) inside the verification passes;
      checksum-replica repairs ([stats.checksum_repairs]) are likewise
      inline;
    + {e snapshot rollback} to the attempt's last verified {!snapshot},
      rerunning only the trailing iterations, up to [max_rollbacks]
      times per attempt (only drivers that take snapshots have it);
    + {e full restart} from the pristine input, up to [max_restarts]
      times;
    + give up with the structured {!reason}. The ladder dispatches on
      its constructor, never on message text. *)

type reason =
  | Fail_stop of { iteration : int; column : int }
      (** the diagonal factorization broke down — Cholesky's POTF2 lost
          positive definiteness, LU's GETF2 met a zero pivot, QR's MGS
          lost rank — at [column] of the block of outer iteration
          [iteration] *)
  | Uncorrectable_block of { block : int * int; detail : string }
      (** a verification found an error pattern the scheme cannot
          repair in the given tile (QR names panel [p] as [(p, p)]) *)
  | Final_mismatch of { block : int * int; detail : string }
      (** the end-of-run verification found a block inconsistent
          (Offline-ABFT's detect-only check, or the final sweep) *)

exception Error of reason
(** Raised inside an attempt; caught by {!run}. *)

val is_fail_stop : reason -> bool

val describe : reason -> string
(** Human-readable one-liner; [Fail_stop] descriptions begin with
    ["fail-stop:"]. *)

val pp : Format.formatter -> reason -> unit

(** {1 Outcome and stats} *)

type outcome =
  | Success  (** factor returned and residual at working precision *)
  | Silent_corruption
      (** the run completed believing it succeeded, but the factor is
          wrong — e.g. Online-ABFT after a storage error (the paper's
          motivating failure) *)
  | Gave_up of reason
      (** every ladder rung exhausted; payload is the last failure *)

type stats = {
  verifications : int;  (** tile verifications performed *)
  corrections : int;  (** elements located and delta-patched *)
  reconstructions : int;  (** elements rebuilt from the plain-sum row *)
  checksum_repairs : int;  (** checksum blocks healed by replica repair *)
  uncorrectable_events : int;  (** attempts cut short by {!Error} *)
  fail_stops : int;  (** of those, the {!Fail_stop} ones *)
  rollbacks : int;  (** snapshot rollbacks taken *)
  snapshots : int;  (** snapshots captured *)
  restarts : int;  (** full restarts *)
}
(** [verifications], [corrections], [reconstructions] and
    [checksum_repairs] cover the final attempt; the other fields are
    whole-run totals. *)

val residual_threshold : float
(** Relative residual above which a completed run is classified
    {!Silent_corruption} ([1e-6]). *)

val classify : reason option -> residual:float -> outcome
(** [Gave_up] if the ladder gave up, else {!Success} iff
    [residual <= residual_threshold] (a NaN residual is corruption). *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp_stats : Format.formatter -> stats -> unit
(** The nine counters on two lines of a vertical box. *)

(** {1 The ladder} *)

type tally
(** The running counters of one {!run}. *)

val current : tally -> stats
(** The counters so far (for partial reports, e.g. on cancellation). *)

val count_verification : tally -> unit

val absorb :
  ?final:bool -> tally -> block:int * int -> Abft.Verify.outcome -> unit
(** Fold one verification outcome into the counters (without counting
    the verification): located fixes count as [corrections],
    reconstructed ones as [reconstructions], a replica heal as one
    [checksum_repair]. [Uncorrectable] raises {!Error} with
    [Uncorrectable_block], or [Final_mismatch] when [final] (default
    false). *)

val verified :
  ?final:bool -> tally -> block:int * int -> Abft.Verify.outcome -> unit
(** {!count_verification} then {!absorb}. *)

val checked : tally -> block:int * int -> bool -> unit
(** A detect-only end-of-run check: count one verification; raise
    {!Error} with [Final_mismatch] if the check failed. *)

val snapshot : tally -> iteration:int -> restore:(unit -> unit) -> unit
(** Register a verified snapshot taken before outer iteration
    [iteration]; [restore] copies it back into the live state. It
    replaces any earlier snapshot and is dropped on restart. *)

val run :
  ?max_rollbacks:int ->
  max_restarts:int ->
  (tally -> 'a * (from:int -> unit)) ->
  'a * stats * reason option
(** [run ~max_restarts start]: [start t] builds one attempt's fresh
    state and returns it with the function that runs the attempt from
    an outer iteration ([0], or a snapshot's iteration after its
    [restore]). Returns the last attempt's state, the final counters
    and, if every rung was exhausted, the last reason.
    [max_rollbacks] defaults to [0]. *)
