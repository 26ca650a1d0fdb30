(* The two-phase driver.

   Phase 1, per file: parse, lower to the IR summary, run the
   syntactic (File-kind) rules, apply the file's waiver spans. Phase 2,
   whole program: build the index from all summaries and run the
   dataflow (Project-kind) rules over it, then the cross-cutting
   post-passes: waiver spans for the project findings, the stale-waiver
   check, and baseline demotion. *)

type report = {
  findings : Finding.t list;
  errors : (string * string) list;
  files_checked : int;
  stale_baseline : Baseline.entry list;
}

let version = "2.0"

let parse ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Ppxlib.Parse.implementation lexbuf

let run_file_rules rules ~file str =
  List.concat_map
    (fun (r : Rules.t) ->
      match r.Rules.kind with
      | Rules.File check -> check ~file str
      | Rules.Project _ -> [])
    rules

let run_project_rules rules idx =
  List.concat_map
    (fun (r : Rules.t) ->
      match r.Rules.kind with
      | Rules.Project check -> check idx
      | Rules.File _ -> [])
    rules

(* ------------------------------------------------------------------ *)
(* Waiver spans and the stale-waiver check                             *)
(* ------------------------------------------------------------------ *)

(* [@abft.unverified] declares a read the ABFT layer deliberately does
   not check — it answers R2/R6 and nothing else. [@abft.waive] is the
   generic suppression for every other rule. *)
let span_matches_rule (w : Ir.waiver) rule =
  let unverified_rules = [ "R2"; "R6" ] in
  match w with
  | Ir.No_waiver -> false
  | Ir.Unverified _ -> List.mem rule unverified_rules
  | Ir.Waive _ -> not (List.mem rule unverified_rules)

let apply_waiver_spans spans findings =
  List.map
    (fun (f : Finding.t) ->
      if f.Finding.waived || f.Finding.baselined then f
      else
        match
          List.find_opt
            (fun ((span : Ir.loc), w) ->
              span_matches_rule w f.Finding.rule
              && Ir.contains_finding span ~file:f.Finding.file
                   ~line:f.Finding.line ~col:f.Finding.col)
            spans
        with
        | Some (_, w) ->
            {
              f with
              Finding.waived = true;
              waiver_reason = Ir.waiver_reason w;
            }
        | None -> f)
    findings

(* A waiver that suppresses nothing is debt in the other direction:
   the finding it answered was fixed (or the rule moved on) and the
   attribute now only misleads readers. Only meaningful when the full
   rule set ran — under --rules a waiver's rule may simply be off. *)
let stale_waiver_rule = "W0"

let stale_waiver_findings summaries findings =
  List.concat_map
    (fun (fs : Ir.file_summary) ->
      List.filter_map
        (fun ((span : Ir.loc), (w : Ir.waiver)) ->
          (* A waiver is "used" when a waived finding sits inside its
             span — or, for attributes the dataflow rules consume
             through the IR (a tainted binding's producer waives the
             finding at the *consuming* call, outside the attribute's
             own span), when a waived finding in the same file carries
             this waiver's reason. *)
          let used =
            List.exists
              (fun (f : Finding.t) ->
                f.Finding.waived
                && (Ir.contains_finding span ~file:f.Finding.file
                      ~line:f.Finding.line ~col:f.Finding.col
                   || (f.Finding.file = span.Ir.file
                      && f.Finding.waiver_reason <> None
                      && f.Finding.waiver_reason = Ir.waiver_reason w)))
              findings
          in
          if used then None
          else
            let attr, hint =
              match w with
              | Ir.Unverified _ -> ("[@abft.unverified]", "R2/R6")
              | _ -> ("[@abft.waive]", "any rule")
            in
            Some
              (Finding.make ~rule:stale_waiver_rule
                 ~loc:(Ir.to_location span)
                 (Printf.sprintf
                    "stale waiver: this %s attribute suppresses no %s \
                     finding any more; delete it (reason was%s)"
                    attr hint
                    (match Ir.waiver_reason w with
                    | Some r -> ": " ^ r
                    | None -> " not given"))))
        fs.Ir.waiver_spans)
    summaries

(* ------------------------------------------------------------------ *)
(* Per-file phase                                                      *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Phase 1 of one file: its summary and its per-file findings, or the
   parse error message. *)
let analyze_source ~rules ~file source =
  match parse ~file source with
  | str ->
      let summary = Index.summarize ~file str in
      let findings =
        apply_waiver_spans summary.Ir.waiver_spans
          (run_file_rules rules ~file str)
      in
      Ok (summary, findings)
  | exception exn -> (
      match Ppxlib.Location.Error.of_exn exn with
      | Some err -> Error (Ppxlib.Location.Error.message err)
      | None -> Error (Printexc.to_string exn))

(* Whether the default (complete) rule set is running — the gate for
   the stale-waiver post-pass. *)
let full_rule_set rules =
  List.length rules = List.length Rules.all
  && List.for_all2 (fun (a : Rules.t) (b : Rules.t) -> a.Rules.id = b.Rules.id)
       rules Rules.all

let finish ~rules ~summaries ~findings ~baseline =
  let idx = Index.build summaries in
  let spans =
    List.concat_map (fun (fs : Ir.file_summary) -> fs.Ir.waiver_spans)
      summaries
  in
  let proj = apply_waiver_spans spans (run_project_rules rules idx) in
  let all = findings @ proj in
  let all =
    if full_rule_set rules then all @ stale_waiver_findings summaries all
    else all
  in
  let all, stale_baseline =
    match baseline with
    | None -> (all, [])
    | Some entries -> Baseline.apply entries all
  in
  (List.sort Finding.order all, stale_baseline)

let lint_string ?(rules = Rules.all) ~file source =
  match analyze_source ~rules ~file source with
  | Error msg -> failwith msg
  | Ok (summary, findings) ->
      fst (finish ~rules ~summaries:[ summary ] ~findings ~baseline:None)

let lint_file ?(rules = Rules.all) path =
  match read_file path with
  | exception Sys_error e -> Error e
  | source -> (
      match analyze_source ~rules ~file:path source with
      | Error msg -> Error msg
      | Ok (summary, findings) ->
          Ok (fst (finish ~rules ~summaries:[ summary ] ~findings ~baseline:None)))

(* ------------------------------------------------------------------ *)
(* File discovery                                                      *)
(* ------------------------------------------------------------------ *)

(* Directories that never hold project sources. *)
let skip_dir name =
  String.length name > 0
  && (name.[0] = '_' || name.[0] = '.')

let collect_ml_files paths =
  let files = ref [] in
  let errors = ref [] in
  let rec walk ~explicit path =
    if not (Sys.file_exists path) then
      errors := (path, "no such file or directory") :: !errors
    else if Sys.is_directory path then
      match Sys.readdir path with
      | entries ->
          Array.sort String.compare entries;
          Array.iter
            (fun entry ->
              if not (skip_dir entry) then
                walk ~explicit:false (Filename.concat path entry))
            entries
      | exception Sys_error e -> errors := (path, e) :: !errors
    else if explicit || Filename.check_suffix path ".ml" then
      files := path :: !files
  in
  List.iter (walk ~explicit:true) paths;
  (List.rev !files, List.rev !errors)

(* ------------------------------------------------------------------ *)
(* The full run                                                        *)
(* ------------------------------------------------------------------ *)

let run ?(rules = Rules.all) ?baseline paths =
  let files, path_errors = collect_ml_files paths in
  let summaries = ref [] in
  let file_findings = ref [] in
  let errors = ref (List.rev path_errors) in
  List.iter
    (fun file ->
      match read_file file with
      | exception Sys_error e -> errors := (file, e) :: !errors
      | source -> (
          match analyze_source ~rules ~file source with
          | Ok (summary, fs) ->
              summaries := summary :: !summaries;
              file_findings := List.rev_append fs !file_findings
          | Error msg -> errors := (file, msg) :: !errors))
    files;
  let findings, stale_baseline =
    finish ~rules ~summaries:(List.rev !summaries)
      ~findings:(List.rev !file_findings) ~baseline
  in
  {
    findings;
    errors = List.rev !errors;
    files_checked = List.length files;
    stale_baseline;
  }

let blocking r = List.filter Finding.is_blocking r.findings

let human_report r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (file, msg) ->
      Buffer.add_string buf (Printf.sprintf "%s: error: %s\n" file msg))
    r.errors;
  List.iter
    (fun f ->
      Buffer.add_string buf (Finding.to_human f);
      Buffer.add_char buf '\n')
    r.findings;
  List.iter
    (fun (e : Baseline.entry) ->
      Buffer.add_string buf
        (Printf.sprintf
           "stale baseline entry (prune it): %s %s: %s\n" e.Baseline.rule
           e.Baseline.file e.Baseline.message))
    r.stale_baseline;
  let nblock = List.length (blocking r) in
  let nbaselined =
    List.length (List.filter (fun f -> f.Finding.baselined) r.findings)
  in
  let nwaived = List.length r.findings - nblock - nbaselined in
  Buffer.add_string buf
    (Printf.sprintf
       "abftlint: %d file%s checked, %d blocking finding%s, %d waived, %d \
        baselined, %d error%s\n"
       r.files_checked
       (if r.files_checked = 1 then "" else "s")
       nblock
       (if nblock = 1 then "" else "s")
       nwaived nbaselined (List.length r.errors)
       (if List.length r.errors = 1 then "" else "s"));
  Buffer.contents buf

let json_report r =
  (* Reuse the finding serializer; errors ride along so CI archives one
     self-contained artifact. *)
  let body = Finding.report_json ~tool_version:version r.findings in
  let errors =
    String.concat ","
      (List.map
         (fun (file, msg) ->
           Printf.sprintf "{\"file\":\"%s\",\"message\":\"%s\"}"
             (Finding.json_escape file) (Finding.json_escape msg))
         r.errors)
  in
  let stale =
    String.concat ","
      (List.map
         (fun (e : Baseline.entry) ->
           Printf.sprintf "{\"rule\":\"%s\",\"file\":\"%s\",\"message\":\"%s\"}"
             (Finding.json_escape e.Baseline.rule)
             (Finding.json_escape e.Baseline.file)
             (Finding.json_escape e.Baseline.message))
         r.stale_baseline)
  in
  (* body ends with "]}"; splice the extra fields before the close. *)
  String.sub body 0 (String.length body - 1)
  ^ Printf.sprintf
      ",\"files_checked\":%d,\"errors\":[%s],\"stale_baseline\":[%s]}"
      r.files_checked errors stale

let sarif_report ?(rules = Rules.all) r =
  Sarif.report ~tool_version:version ~rules ~findings:r.findings
    ~errors:r.errors

let exit_code r =
  if r.errors <> [] then 2 else if blocking r <> [] then 1 else 0
