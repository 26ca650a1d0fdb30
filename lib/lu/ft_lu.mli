(** Fault-tolerant blocked LU decomposition (extension beyond the
    paper).

    The paper's group applied online ABFT to LU and QR in companion
    work (FT-ScaLAPACK, HPDC'14; Davies & Chen, HPDC'13); this module
    carries the *Enhanced* pre-read scheme over to LU on the same
    substrate. LU is two-sided, so every trailing tile maintains both
    column and row checksums ({!Duochk}); the L panel keeps column
    checksums (errors located by row), the U panel row checksums
    (located by column). Pivoting is omitted — row swaps would break
    the per-tile checksum relationship — so inputs must be diagonally
    dominant ({!Matrix.Lapack.diag_dominant}); a vanishing pivot
    fail-stops and triggers recovery, exactly like lost positive
    definiteness in the Cholesky driver.

    Failures climb the shared {!Cholesky.Recovery} ladder: inline
    correction, then full restart (this driver takes no snapshots, so
    it has no rollback rung), then give up with the structured reason —
    a zero pivot is [Fail_stop], an unrepairable tile
    [Uncorrectable_block], an Offline end-of-run mismatch
    [Final_mismatch]. The timing-mode counterpart is
    {!Schedule_lu}. *)

open Matrix

(** The shared ladder outcome and counters; see {!Cholesky.Recovery}. *)
type outcome = Cholesky.Recovery.outcome =
  | Success
  | Silent_corruption
  | Gave_up of Cholesky.Recovery.reason

type stats = Cholesky.Recovery.stats = {
  verifications : int; corrections : int; reconstructions : int;
  checksum_repairs : int; uncorrectable_events : int; fail_stops : int;
  rollbacks : int; snapshots : int; restarts : int;
}

type report = {
  l : Mat.t;  (** unit-lower factor *)
  u : Mat.t;  (** upper factor *)
  outcome : outcome;
  residual : float;  (** ‖L·U − A‖_F / ‖A‖_F *)
  stats : stats;
  injections_fired : Injector.fired list;
}

val factor :
  ?plan:Fault.t ->
  ?scheme:Abft.Scheme.t ->
  ?block:int ->
  ?tol:float ->
  ?max_restarts:int ->
  ?fused:bool ->
  Mat.t ->
  report
(** [factor a] decomposes square [a] (unmodified) with per-tile dual
    checksums. Defaults: [Enhanced k=1], block 16 (or the order if
    smaller), {!Abft.Verify.default_tol}, 3 restarts, fused kernels
    ([?fused], default [true]: column checksum chains ride the tile
    GEMM/TRSM via {!Duochk.fuse_col}/{!Duochk.solve_col} and
    verification uses the carried-vs-fresh compare; the row side and
    GETF2 rules stay separate passes either way). Supported
    schemes: [No_ft], [Online] (post-update verification), [Enhanced]
    (pre-read, K-gated trailing verification; panel and diagonal inputs
    always verified, mirroring the SYRK rule of the paper's
    Optimization 3), [Offline] (detect-only final verification).

    Fault windows map as: [Potf2 ↦ GETF2] (diagonal tile),
    [Trsm ↦ either panel solve] (disambiguated by the target tile's
    coordinates), [Gemm ↦ trailing update], [In_storage] as in
    Cholesky.
    @raise Invalid_argument if [a] is not square or its order is not a
    positive multiple of the block size. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_report : Format.formatter -> report -> unit
