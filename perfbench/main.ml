(* The repository benchmark.

     dune exec --root . --profile release perfbench/main.exe -- \
       --workload factor-large --seed 1 --seconds 20 --trace 0

   Workloads: factor-large, serve-mixed, fault-storm, sim-paper, or all
   (the four in turn). With --trace 0 the last line of standard output
   is the JSON result with the end-to-end metrics; with --trace 1 it
   carries the per-layer metrics of a traced run. The line before it is
   the result document: host fingerprint, references and raw medians.
   Exit status: 0 when every result passed the independent check, 1
   when one did not, 2 on a usage error, 3 when the build may not be
   timed. *)

open Perfbench_core

let workloads =
  [
    ("factor-large", W_factor.run);
    ("serve-mixed", W_serve.run);
    ("fault-storm", W_storm.run);
    ("sim-paper", W_sim.run);
  ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let print_result ~trace (r : Report.result) =
  Printf.printf "== %s\n" r.Report.workload;
  List.iter Report.print_metric r.Report.named;
  if trace then
    List.iter
      (fun (name, unit_) ->
        let v = Option.value ~default:0. (List.assoc_opt name r.Report.layers) in
        Report.print_metric (Report.metric ~clock:Report.Derived name unit_ v))
      Report.per_layer

(* The gated metrics of one workload, as the result object lists them. *)
let result_metrics ~trace (r : Report.result) =
  if trace then
    List.map
      (fun (name, unit_) ->
        let v =
          if name = "fail_share" then Tally.fail_share r.Report.tally
          else Option.value ~default:0. (List.assoc_opt name r.Report.layers)
        in
        (name, v, unit_))
      Report.per_layer
  else List.map (fun m -> (m.Report.name, m.Report.value, m.Report.unit_)) r.Report.e2e

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run (or all)");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let selected =
    if !workload = "all" then workloads
    else
      match List.assoc_opt !workload workloads with
      | Some w -> [ (!workload, w) ]
      | None ->
          prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
          exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then (prerr_endline usage; exit 2);
  (match Fingerprint.refusal () with
  | Some why ->
      prerr_endline ("refusing to time this run: " ^ why);
      exit 3
  | None -> ());
  let trace = !trace = 1 in
  let results =
    List.map
      (fun (name, run) ->
        let r = run ~seed:!seed ~seconds:!seconds ~trace in
        assert (r.Report.workload = name);
        print_result ~trace r;
        r)
      selected
  in
  let tally = Tally.merge (List.map (fun (r : Report.result) -> r.Report.tally) results) in
  let metrics =
    match results with
    | [ r ] -> result_metrics ~trace r
    | rs ->
        List.concat_map
          (fun (r : Report.result) ->
            List.map
              (fun (n, v, u) -> (r.Report.workload ^ "/" ^ n, v, u))
              (result_metrics ~trace r))
          rs
  in
  let correct = Tally.correct tally in
  let fingerprint =
    Fingerprint.fields ()
    @ [
        ("workload", !workload);
        ("seed", string_of_int !seed);
        ("seconds", Printf.sprintf "%g" !seconds);
        ("trace", if trace then "1" else "0");
      ]
  in
  print_endline (Report.json_document ~fingerprint results);
  print_endline (Report.json_result ~correct ~tally metrics);
  exit (if correct then 0 else 1)
