(** The two-phase analysis driver: file discovery, phase-1 per-file
    parsing/extraction, phase-2 whole-program dataflow, and the
    report/exit-code contracts. *)

type report = {
  findings : Finding.t list;  (** sorted by file/line/col/rule *)
  errors : (string * string) list;  (** file, message — unreadable/unparsable *)
  files_checked : int;
  stale_baseline : Baseline.entry list;
      (** baseline entries that matched no finding (paid-off debt) *)
}

val version : string

val lint_string :
  ?rules:Rules.t list -> file:string -> string -> Finding.t list
(** Lint source text directly (the unit tests' entry point). Project
    rules see a one-file program. The stale-waiver check (rule [W0])
    runs only with the full default rule set.
    @raise Failure on a syntax error. *)

val lint_file : ?rules:Rules.t list -> string -> (Finding.t list, string) result

val collect_ml_files : string list -> string list * (string * string) list
(** Expand paths: a file is taken as-is, a directory is walked
    recursively for [.ml] files, skipping [_build]-style and hidden
    directories. Returns (files, errors-for-missing-paths). *)

val run :
  ?rules:Rules.t list ->
  ?baseline:Baseline.entry list ->
  string list ->
  report
(** Lint all [.ml] files reachable from the given paths. With
    [baseline], matching blocking findings are demoted to
    [baselined]. *)

val human_report : report -> string

val json_report : report -> string

val sarif_report : ?rules:Rules.t list -> report -> string
(** SARIF 2.1.0; [rules] populates the tool's rule metadata. *)

val exit_code : report -> int
(** 0 clean (waived/baselined-only findings are clean), 1 blocking
    findings, 2 file/parse errors. *)
