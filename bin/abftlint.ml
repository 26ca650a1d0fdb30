(* abftlint — static checker for the project invariants the ABFT layer
   depends on. See lib/analysis for the rule implementations and
   DESIGN.md §"The analysis layer" for the catalogue.

   Exit codes (the CI contract): 0 when clean — waived and baselined
   findings are clean; 1 when blocking findings remain; 2 on usage,
   file or parse errors (including a --baseline file that does not
   exist, unless --update-baseline is creating it). *)

let list_rules () =
  List.iter
    (fun (r : Analysis.Rules.t) ->
      Printf.printf "%s  %s\n    %s\n" r.id r.title r.rationale)
    Analysis.Rules.all

let split_commas s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let write_out path content =
  if path = "-" then print_endline content
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc content;
        output_char oc '\n')
  end

let run paths json sarif baseline_file update_baseline rules_csv list_only
    quiet =
  if list_only then begin
    list_rules ();
    0
  end
  else
    match Analysis.Rules.select (split_commas rules_csv) with
    | Error id ->
        Printf.eprintf "abftlint: unknown rule %S (try --list-rules)\n" id;
        2
    | Ok rules -> (
        let baseline =
          match baseline_file with
          | None -> Ok None
          | Some _ when update_baseline ->
              (* regenerating: current contents are irrelevant *)
              Ok None
          | Some path -> (
              match Analysis.Baseline.load path with
              | Ok entries -> Ok (Some entries)
              | Error msg ->
                  Error
                    (Printf.sprintf
                       "cannot read baseline %s (%s); pass \
                        --update-baseline to create it"
                       path msg))
        in
        match baseline with
        | Error msg ->
            Printf.eprintf "abftlint: %s\n" msg;
            2
        | Ok baseline ->
            let paths =
              if paths = [] then [ "lib"; "bin"; "bench" ] else paths
            in
            let report =
              Analysis.Driver.run ~rules ?baseline paths
            in
            let report =
              match baseline_file with
              | Some path when update_baseline ->
                  (* Accept today's blocking findings as the new debt
                     line, then report against it so the run exits 0. *)
                  Analysis.Baseline.save path report.Analysis.Driver.findings;
                  let entries =
                    match Analysis.Baseline.load path with
                    | Ok e -> e
                    | Error _ -> []
                  in
                  let findings, stale =
                    Analysis.Baseline.apply entries
                      report.Analysis.Driver.findings
                  in
                  {
                    report with
                    Analysis.Driver.findings;
                    stale_baseline = stale;
                  }
              | _ -> report
            in
            Option.iter
              (fun p -> write_out p (Analysis.Driver.json_report report))
              json;
            Option.iter
              (fun p ->
                write_out p (Analysis.Driver.sarif_report ~rules report))
              sarif;
            if not quiet then
              print_string (Analysis.Driver.human_report report);
            Analysis.Driver.exit_code report)

open Cmdliner

let paths_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"PATH"
         ~doc:"Files or directories to lint (default: lib bin bench).")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
         ~doc:"Also write a machine-readable JSON report to $(docv) ('-' for \
               stdout).")

let sarif_arg =
  Arg.(value & opt (some string) None & info [ "sarif-out" ] ~docv:"FILE"
         ~doc:"Also write a SARIF 2.1.0 report to $(docv) ('-' for stdout).")

let baseline_arg =
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE"
         ~doc:"Accepted-findings file: blocking findings matching an entry \
               are demoted to baselined (clean). Missing file is an error \
               unless $(b,--update-baseline) is creating it.")

let update_baseline_arg =
  Arg.(value & flag & info [ "update-baseline" ]
         ~doc:"Rewrite the $(b,--baseline) file from this run's blocking \
               findings and exit as if it had been in force.")

let rules_arg =
  Arg.(value & opt string "" & info [ "rules" ] ~docv:"IDS"
         ~doc:"Comma-separated rule ids to run (default: all).")

let list_arg =
  Arg.(value & flag & info [ "list-rules" ]
         ~doc:"Print the rule catalogue and exit.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ]
         ~doc:"Suppress the human-readable report.")

let cmd =
  let doc =
    "static analysis for the ABFT project invariants: syntactic rules (R1 \
     parallel-write discipline, R2 verify-before-read, R3 banned \
     constructs, R4 bounded retries, R5 unchecked access) plus \
     whole-program dataflow (R6 unverified-data taint, R7 span/resource \
     discipline, R8 exception-path soundness)"
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"no blocking findings (waived/baselined-only is clean)";
      Cmd.Exit.info 1 ~doc:"blocking findings reported";
      Cmd.Exit.info 2 ~doc:"usage, file or parse errors";
    ]
  in
  Cmd.v
    (Cmd.info "abftlint" ~doc ~exits ~version:Analysis.Driver.version)
    Term.(
      const run $ paths_arg $ json_arg $ sarif_arg $ baseline_arg
      $ update_baseline_arg $ rules_arg $ list_arg
      $ quiet_arg)

let () = exit (Cmd.eval' cmd)
