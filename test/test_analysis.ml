(* Tests for lib/analysis (the abftlint rules and driver): each rule
   fires on its fixture, stays quiet on the allowlisted idioms, and
   honours the waiver attributes; the driver's exit-code and JSON
   contracts hold. *)

module A = Analysis

let lint ?rules ?(file = "test.ml") src = A.Driver.lint_string ?rules ~file src

let rule id =
  match A.Rules.find id with
  | Some r -> r
  | None -> Alcotest.failf "rule %s not registered" id

let blocking fs = List.filter A.Finding.is_blocking fs
let with_rule id fs = List.filter (fun f -> f.A.Finding.rule = id) fs

let check_count name n fs = Alcotest.(check int) name n (List.length fs)

(* ------------------------------------------------------------------ *)
(* R1: no shared mutable writes in pool closures                       *)
(* ------------------------------------------------------------------ *)

let test_r1_captured_ref () =
  let fs =
    lint ~rules:[ rule "R1" ]
      {|let f pool a =
  let total = ref 0. in
  Pool.parallel_for pool ~lo:0 ~hi:10 (fun i -> total := !total +. a.(i));
  !total|}
  in
  check_count "one finding" 1 (blocking fs);
  let f = List.hd (blocking fs) [@abft.waive "count checked on previous line"] in
  Alcotest.(check string) "rule" "R1" f.A.Finding.rule;
  Alcotest.(check int) "line" 3 f.A.Finding.line

let test_r1_disjoint_index_ok () =
  (* writes indexed by the item binding are the allowlisted idiom *)
  let fs =
    lint ~rules:[ rule "R1" ]
      {|let f pool a =
  Pool.parallel_for pool ~lo:0 ~hi:10 (fun i -> a.(i) <- a.(i) *. 2.)|}
  in
  check_count "no findings" 0 fs

let test_r1_item_local_ok () =
  (* state created inside the work item is private to it *)
  let fs =
    lint ~rules:[ rule "R1" ]
      {|let f pool a =
  Pool.parallel_for pool ~lo:0 ~hi:10 (fun i ->
      let acc = ref 0. in
      acc := !acc +. a.(i);
      a.(i) <- !acc)|}
  in
  check_count "no findings" 0 fs

let test_r1_constant_index_flagged () =
  let fs =
    lint ~rules:[ rule "R1" ]
      {|let f pool hits =
  Pool.parallel_for pool ~lo:0 ~hi:10 (fun _i -> hits.(0) <- 1)|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r1_named_closure () =
  (* the closure reaches the sink through a let binding *)
  let fs =
    lint ~rules:[ rule "R1" ]
      {|let f pool =
  let seen = ref 0 in
  let work _i = incr seen in
  Pool.parallel_for pool ~lo:0 ~hi:10 work|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r1_waiver () =
  let fs =
    lint ~rules:[ rule "R1" ]
      {|let f pool flag =
  Pool.parallel_for pool ~lo:0 ~hi:10 (fun _i ->
      (flag := true) [@abft.waive "monotone flag"])|}
  in
  check_count "finding still reported" 1 fs;
  check_count "but not blocking" 0 (blocking fs);
  let f = List.hd fs [@abft.waive "count checked on previous line"] in
  Alcotest.(check (option string))
    "reason" (Some "monotone flag") f.A.Finding.waiver_reason

let test_r1_setfield () =
  let fs =
    lint ~rules:[ rule "R1" ]
      {|type acc = { mutable best : float }
let f pool a =
  let acc = { best = 0. } in
  Pool.parallel_chunks pool ~lo:0 ~hi:10 (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        if a.(i) > acc.best then acc.best <- a.(i)
      done)|}
  in
  check_count "one finding" 1 (blocking fs)

(* ------------------------------------------------------------------ *)
(* R2: verify-before-read in FT drivers                                *)
(* ------------------------------------------------------------------ *)

let test_r2_unverified_read () =
  let fs =
    lint ~rules:[ rule "R2" ] ~file:"lib/cholesky/ft.ml"
      {|let update st a b c = Blas3.gemm ~alpha:(-1.) ~beta:1. a b c|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r2_dominated_read_ok () =
  let fs =
    lint ~rules:[ rule "R2" ] ~file:"lib/cholesky/ft.ml"
      {|let update st a b c =
  verify_block st;
  Blas3.gemm ~alpha:(-1.) ~beta:1. a b c|}
  in
  check_count "no findings" 0 fs

let test_r2_out_of_scope_file () =
  (* the rule only patrols the FT drivers *)
  let fs =
    lint ~rules:[ rule "R2" ] ~file:"lib/matrix/blas3.ml"
      {|let update a b c = Blas3.gemm a b c|}
  in
  check_count "no findings" 0 fs

let test_r2_waiver () =
  let fs =
    lint ~rules:[ rule "R2" ] ~file:"lib/qr/ft_qr.ml"
      {|let residual q r a =
  Mat.norm_fro
    (Mat.sub_mat (Blas3.gemm_alloc q r [@abft.unverified "post-check"]) a)|}
  in
  check_count "reported" 1 fs;
  check_count "not blocking" 0 (blocking fs)

(* ------------------------------------------------------------------ *)
(* R3: banned constructs                                               *)
(* ------------------------------------------------------------------ *)

let test_r3_catch_all () =
  let fs = lint ~rules:[ rule "R3" ] {|let f g x = try g x with _ -> 0.|} in
  check_count "one finding" 1 (blocking fs)

let test_r3_specific_handler_ok () =
  let fs =
    lint ~rules:[ rule "R3" ]
      {|let f g x = try g x with Failure _ -> 0. | Not_found -> 1.|}
  in
  check_count "no findings" 0 fs

let test_r3_banned_idents () =
  let fs =
    lint ~rules:[ rule "R3" ]
      {|let a x = Obj.magic x
let b l = List.hd l
let c l i = List.nth l i
let d x y = compare x y|}
  in
  check_count "four findings" 4 (blocking fs)

let test_r3_float_eq () =
  let fs = lint ~rules:[ rule "R3" ] {|let is_zero x = x = 0.|} in
  check_count "one finding" 1 (blocking fs)

let test_r3_float_neq_fast_path_ok () =
  (* <> against 0./1. literals is the BLAS sparsity fast path *)
  let fs =
    lint ~rules:[ rule "R3" ]
      {|let f alpha beta = if alpha <> 0. && beta <> 1. then Some alpha else None|}
  in
  check_count "no findings" 0 fs;
  let fs2 = lint ~rules:[ rule "R3" ] {|let g x = x <> 0.5|} in
  check_count "other literals flagged" 1 (blocking fs2)

let test_r3_typed_compare_ok () =
  let fs =
    lint ~rules:[ rule "R3" ]
      {|let f a b = Float.compare a b
let g a b = Float.equal a b
let h x = Float.equal x 0.|}
  in
  check_count "no findings" 0 fs

let test_r3_waiver () =
  let fs =
    lint ~rules:[ rule "R3" ]
      {|let f g x = (try g x with _ -> 0.) [@abft.waive "total by design"]|}
  in
  check_count "reported" 1 fs;
  check_count "not blocking" 0 (blocking fs)

(* ------------------------------------------------------------------ *)
(* R4: retry loops must be bounded                                     *)
(* ------------------------------------------------------------------ *)

let test_r4_unbounded_flagged () =
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let rec retry_op dev op =
  match dev op with Some r -> r | None -> retry_op dev op|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r4_param_name_flagged () =
  (* an innocuous function name with an [attempt] parameter still counts *)
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let submit run =
  let rec go ~attempt =
    match run () with Some r -> r | None -> go ~attempt:(attempt + 1)
  in
  go ~attempt:0|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r4_bounded_ok () =
  (* cap consulted as a bare identifier *)
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let rec retry_op dev op ~attempt ~max_retries =
  match dev op with
  | Some r -> Some r
  | None ->
      if attempt >= max_retries then None
      else retry_op dev op ~attempt:(attempt + 1) ~max_retries|}
  in
  check_count "no findings" 0 fs

let test_r4_record_cap_ok () =
  (* cap consulted through a record path, the drivers' idiom *)
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let retried t run =
  let rec go ~attempt =
    match run () with
    | Some r -> r
    | None -> if attempt >= t.policy.max_retries then fail () else go ~attempt:(attempt + 1)
  in
  go ~attempt:0|}
  in
  check_count "no findings" 0 fs

let test_r4_non_retry_recursion_ok () =
  (* unrelated recursion is out of scope however unbounded it looks *)
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let rec walk = function [] -> 0 | _ :: tl -> 1 + walk tl|}
  in
  check_count "no findings" 0 fs

let test_r4_while_flagged () =
  (* the serving layer's imperative drain/resubmit loops are retry
     loops in everything but shape *)
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let drain q = while retry_pending q do resubmit_head q done|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r4_while_bounded_ok () =
  (* cap consulted in the loop condition *)
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let drain q ~max_attempts =
  let attempts = ref 0 in
  while retry_pending q && !attempts < max_attempts do
    resubmit_head q;
    incr attempts
  done|}
  in
  check_count "no findings" 0 fs

let test_r4_non_retry_while_ok () =
  (* an ordinary event loop is out of scope however unbounded it looks *)
  let fs =
    lint ~rules:[ rule "R4" ] {|let serve running = while !running do step () done|}
  in
  check_count "no findings" 0 fs

let test_r4_while_waiver () =
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let drain q =
  (while retry_pending q do resubmit_head q done)
  [@abft.waive "resubmit_head pops the item on its final failure"]|}
  in
  check_count "reported" 1 fs;
  check_count "not blocking" 0 (blocking fs)

let test_r4_waiver () =
  let fs =
    lint ~rules:[ rule "R4" ]
      {|let rec retry_forever run x =
  (match run x with Some r -> r | None -> retry_forever run x)
[@abft.waive "run raises after its internal budget"]|}
  in
  check_count "reported" 1 fs;
  check_count "not blocking" 0 (blocking fs)

(* ------------------------------------------------------------------ *)
(* R5: unchecked access stays in the micro-kernel layer                *)
(* ------------------------------------------------------------------ *)

let test_r5_outside_kernel_flagged () =
  let fs =
    lint ~rules:[ rule "R5" ] ~file:"lib/cholesky/ft.ml"
      {|let f a i = Array.unsafe_get a i|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r5_kernel_module_ok () =
  (* the audited micro-kernels are the allowlist *)
  let fs =
    lint ~rules:[ rule "R5" ] ~file:"lib/matrix/blas3.ml"
      {|let f a i = Array.unsafe_get a i|}
  in
  check_count "no findings" 0 fs

let test_r5_mat_accessor_flagged () =
  (* any module's unsafe_* accessor counts, not just Array's *)
  let fs =
    lint ~rules:[ rule "R5" ] ~file:"lib/abft/checksum.ml"
      {|let f m i j = Mat.unsafe_set m i j 0.|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r5_bare_reference_flagged () =
  (* passing the accessor as a value escapes the audit just the same *)
  let fs =
    lint ~rules:[ rule "R5" ]
      {|let reader = Array.unsafe_get|}
  in
  check_count "one finding" 1 (blocking fs)

let test_r5_safe_access_ok () =
  let fs =
    lint ~rules:[ rule "R5" ]
      {|let f a i = a.(i) <- a.(i) +. 1.|}
  in
  check_count "no findings" 0 fs

let test_r5_waiver () =
  let fs =
    lint ~rules:[ rule "R5" ]
      {|let f a i = (Array.unsafe_get a i) [@abft.waive "caller checks i"]|}
  in
  check_count "reported" 1 fs;
  check_count "not blocking" 0 (blocking fs)

(* ------------------------------------------------------------------ *)
(* Driver: fixtures, exit codes, JSON                                  *)
(* ------------------------------------------------------------------ *)

(* Fixtures are copied next to the test binary by the (source_tree
   fixtures) dep, so anchor paths there — works under both `dune
   runtest` (cwd = test dir) and `dune exec` (cwd = project root). *)
let fixture p =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "fixtures/lint")
    p

let test_fixtures_fire () =
  (* every bad fixture must produce blocking findings for its rule *)
  let expect file rule_id =
    match A.Driver.lint_file (fixture file) with
    | Error e -> Alcotest.failf "%s: %s" file e
    | Ok fs ->
        let hits = blocking (with_rule rule_id fs) in
        if hits = [] then
          Alcotest.failf "%s: no blocking %s findings" file rule_id
  in
  expect "r1_bad.ml" "R1";
  expect "r2/ft.ml" "R2";
  expect "r3_bad.ml" "R3";
  expect "r4_bad.ml" "R4";
  expect "r5_bad.ml" "R5"

let test_fixture_counts () =
  let count file rule_id =
    match A.Driver.lint_file (fixture file) with
    | Error e -> Alcotest.failf "%s: %s" file e
    | Ok fs -> List.length (blocking (with_rule rule_id fs))
  in
  Alcotest.(check int) "r1_bad findings" 4 (count "r1_bad.ml" "R1");
  Alcotest.(check int) "r2 findings" 2 (count "r2/ft.ml" "R2");
  Alcotest.(check int) "r3_bad findings" 6 (count "r3_bad.ml" "R3");
  Alcotest.(check int) "r4_bad findings" 4 (count "r4_bad.ml" "R4");
  Alcotest.(check int) "r5_bad findings" 4 (count "r5_bad.ml" "R5")

let test_clean_fixture () =
  match A.Driver.lint_file (fixture "clean.ml") with
  | Error e -> Alcotest.fail e
  | Ok fs ->
      check_count "no blocking findings" 0 (blocking fs);
      check_count "the waived flag write is still reported" 1 fs

let test_run_exit_codes () =
  let bad = A.Driver.run [ fixture "r3_bad.ml" ] in
  Alcotest.(check int) "blocking findings exit 1" 1 (A.Driver.exit_code bad);
  let clean = A.Driver.run [ fixture "clean.ml" ] in
  Alcotest.(check int) "clean exits 0" 0 (A.Driver.exit_code clean);
  let missing = A.Driver.run [ "no/such/path.ml" ] in
  Alcotest.(check int) "missing path exits 2" 2 (A.Driver.exit_code missing)

let test_rule_selection () =
  (match A.Rules.select [ "r1"; "R3" ] with
  | Ok rs ->
      Alcotest.(check (list string))
        "case-insensitive ids" [ "R1"; "R3" ]
        (List.map (fun r -> r.A.Rules.id) rs)
  | Error e -> Alcotest.fail e);
  match A.Rules.select [ "R9" ] with
  | Ok _ -> Alcotest.fail "unknown rule accepted"
  | Error _ -> ()

let test_json_report () =
  let r = A.Driver.run [ fixture "r3_bad.ml" ] in
  let json = A.Driver.json_report r in
  let has needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true (go 0)
  in
  has {|"tool":"abftlint"|};
  has {|"rule":"R3"|};
  has {|"blocking":6|};
  has {|"files_checked":1|}

let test_json_escape () =
  Alcotest.(check string)
    "quotes and backslashes" {|a\"b\\c|}
    (A.Finding.json_escape {|a"b\c|});
  Alcotest.(check string) "newline" {|x\ny|} (A.Finding.json_escape "x\ny")

let test_syntax_error_reported () =
  let r = A.Driver.run [ fixture "../broken/unparsable.ml" ] in
  Alcotest.(check int) "parse error exits 2" 2 (A.Driver.exit_code r);
  Alcotest.(check int) "error recorded" 1 (List.length r.A.Driver.errors)

(* ------------------------------------------------------------------ *)
(* R6/R7/R8: whole-program dataflow over the fixture programs          *)
(* ------------------------------------------------------------------ *)

let run_fixture p = A.Driver.run [ fixture p ]

let locs rule_id (r : A.Driver.report) =
  List.map
    (fun f -> (f.A.Finding.line, f.A.Finding.col))
    (blocking (with_rule rule_id r.A.Driver.findings))

let test_r6_fixture_locations () =
  (* direct flow, tainted binding, and the cross-module helper (the
     source resolves through helpers.ml via the index) *)
  let r = run_fixture "r6" in
  Alcotest.(check (list (pair int int)))
    "R6 finding locations"
    [ (5, 25); (9, 2); (13, 2) ]
    (locs "R6" r)

let test_r6_twin_clean () =
  let r = run_fixture "r6_ok" in
  check_count "no blocking R6" 0
    (blocking (with_rule "R6" r.A.Driver.findings));
  check_count "the waived read is still reported" 1
    (with_rule "R6" r.A.Driver.findings);
  check_count "its waiver is not stale" 0
    (with_rule "W0" r.A.Driver.findings)

let test_r6_solver_fixture_locations () =
  (* the solver-scope extension: Blas2.*_alloc is a source and cg.ml is
     in scope, so both unverified matrix-vector-product reads flag *)
  let r = run_fixture "r6_solver" in
  Alcotest.(check (list (pair int int)))
    "R6 solver finding locations"
    [ (6, 24); (10, 2) ]
    (locs "R6" r)

let test_r6_solver_twin_clean () =
  (* residual_check is a sanitizer: mentioning the product clears its
     taint, and the deliberate read is waived without going stale *)
  let r = run_fixture "r6_solver_ok" in
  check_count "no blocking R6" 0
    (blocking (with_rule "R6" r.A.Driver.findings));
  check_count "the waived read is still reported" 1
    (with_rule "R6" r.A.Driver.findings);
  check_count "its waiver is not stale" 0
    (with_rule "W0" r.A.Driver.findings)

let test_r7_fixture_locations () =
  (* unbound start, never-stopped span, raise across an open span, a
     pool attachment without a Fun.protect restore, and a failwith-style
     cancellation bail-out crossing an open span *)
  let r = run_fixture "r7_bad.ml" in
  Alcotest.(check (list (pair int int)))
    "R7 finding locations"
    [ (6, 2); (10, 11); (14, 11); (19, 2); (25, 11) ]
    (locs "R7" r)

let test_r7_twin_clean () =
  let r = run_fixture "r7_ok.ml" in
  check_count "no R7 findings" 0 (with_rule "R7" r.A.Driver.findings)

let test_r8_fixture_locations () =
  (* unaccounted recovery raise; swallowed recovery exception *)
  let r = run_fixture "r8_bad.ml" in
  Alcotest.(check (list (pair int int)))
    "R8 finding locations"
    [ (5, 16); (9, 18) ]
    (locs "R8" r)

let test_r8_twin_clean () =
  (* the twin routes its accounting through a local helper, so a pass
     requires the index's stat-updater fixpoint *)
  let r = run_fixture "r8_ok.ml" in
  check_count "no R8 findings" 0 (with_rule "R8" r.A.Driver.findings)

(* ------------------------------------------------------------------ *)
(* Waiver scoping and the stale-waiver check                           *)
(* ------------------------------------------------------------------ *)

let test_waiver_nested_let () =
  let fs =
    lint
      {|let f x =
  let g = (List.hd x) [@abft.waive "fixture"] in
  g|}
  in
  check_count "no blocking findings" 0 (blocking fs);
  check_count "waived R3 still reported" 1 (with_rule "R3" fs);
  check_count "used waiver is not stale" 0 (with_rule "W0" fs)

let test_waiver_module_level () =
  let fs =
    lint {|[@@@abft.waive "fixture: whole-file"]

let f x = List.hd x|}
  in
  check_count "no blocking findings" 0 (blocking fs);
  check_count "waived R3 still reported" 1 (with_rule "R3" fs)

let test_stale_waiver_flagged () =
  let fs =
    lint {|let f x = (List.length x) [@abft.waive "nothing here"]|}
  in
  match with_rule "W0" fs with
  | [ f ] ->
      Alcotest.(check bool) "stale waiver blocks" true (A.Finding.is_blocking f);
      Alcotest.(check int) "line" 1 f.A.Finding.line
  | w0 -> Alcotest.failf "expected one W0 finding, got %d" (List.length w0)

let test_stale_waiver_gated_off () =
  (* under --rules a waiver's rule may simply be off, so W0 must not run *)
  let fs =
    lint
      ~rules:[ rule "R3" ]
      {|let f x = (List.length x) [@abft.waive "nothing here"]|}
  in
  check_count "no W0 under a rule subset" 0 (with_rule "W0" fs)

let test_unverified_answers_only_r2_r6 () =
  (* [@abft.unverified] must not suppress a banned-construct finding *)
  let fs =
    lint {|let f x = (List.hd x) [@abft.unverified "wrong attribute"]|}
  in
  check_count "R3 finding still blocking" 1 (blocking (with_rule "R3" fs))

(* ------------------------------------------------------------------ *)
(* R3 shadowing: a file's own [compare] is not the polymorphic one     *)
(* ------------------------------------------------------------------ *)

let test_r3_shadowed_compare_ok () =
  let fs =
    lint ~rules:[ rule "R3" ]
      {|let compare a b = Float.compare a.x b.x

let sort l = List.sort compare l|}
  in
  check_count "shadowed compare not flagged" 0 fs

let test_r3_stdlib_compare_still_banned () =
  let fs =
    lint ~rules:[ rule "R3" ]
      {|let compare a b = Float.compare a.x b.x

let sort l = List.sort Stdlib.compare l|}
  in
  check_count "qualified Stdlib.compare still flagged" 1 (blocking fs)

(* ------------------------------------------------------------------ *)
(* R5 alias resolution                                                 *)
(* ------------------------------------------------------------------ *)

let test_r5_alias_resolved () =
  let fs =
    lint ~rules:[ rule "R5" ]
      {|module A = Array

let f a i = A.unsafe_get a i|}
  in
  match blocking fs with
  | [ f ] ->
      Alcotest.(check bool) "finding names the real module" true
        (let msg = f.A.Finding.message in
         let n = String.length "Array.unsafe_get" and h = String.length msg in
         let rec go i =
           i + n <= h
           && (String.sub msg i n = "Array.unsafe_get" || go (i + 1))
         in
         go 0)
  | fs -> Alcotest.failf "expected one R5 finding, got %d" (List.length fs)

(* ------------------------------------------------------------------ *)
(* Baseline: round-trip, demotion, stale entries                       *)
(* ------------------------------------------------------------------ *)

let test_baseline_roundtrip () =
  let r = A.Driver.run [ fixture "r3_bad.ml" ] in
  let path = Filename.temp_file "abftlint-baseline" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      A.Baseline.save path r.A.Driver.findings;
      match A.Baseline.load path with
      | Error e -> Alcotest.fail e
      | Ok entries ->
          let demoted =
            A.Driver.run ~baseline:entries [ fixture "r3_bad.ml" ]
          in
          Alcotest.(check int) "baselined run exits 0" 0
            (A.Driver.exit_code demoted);
          check_count "no blocking left" 0
            (blocking demoted.A.Driver.findings);
          Alcotest.(check int) "all six demoted" 6
            (List.length
               (List.filter
                  (fun f -> f.A.Finding.baselined)
                  demoted.A.Driver.findings));
          check_count "no stale entries" 0 demoted.A.Driver.stale_baseline)

let test_baseline_stale_entry () =
  let entries =
    [ { A.Baseline.rule = "R3"; file = "ghost.ml"; message = "gone" } ]
  in
  let r = A.Driver.run ~baseline:entries [ fixture "clean.ml" ] in
  check_count "stale entry reported" 1 r.A.Driver.stale_baseline;
  Alcotest.(check int) "stale baseline is not an error" 0 (A.Driver.exit_code r)

(* ------------------------------------------------------------------ *)
(* SARIF export                                                        *)
(* ------------------------------------------------------------------ *)

let test_sarif_report () =
  let r = A.Driver.run [ fixture "r3_bad.ml" ] in
  let s = A.Driver.sarif_report r in
  let has needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true (go 0)
  in
  has {|"$schema":"https://json.schemastore.org/sarif-2.1.0.json"|};
  has {|"version":"2.1.0"|};
  has {|"name":"abftlint"|};
  has {|"ruleId":"R3"|};
  has {|"level":"error"|};
  has {|"executionSuccessful":true|}

let test_sarif_suppressions () =
  (* a waived finding exports as a note with an in-source suppression *)
  let r = run_fixture "r6_ok" in
  let s = A.Driver.sarif_report r in
  let has needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "contains %s" needle) true (go 0)
  in
  has {|"level":"note"|};
  has {|"kind":"inSource"|}

let () =
  Alcotest.run "analysis"
    [
      ( "r1",
        [
          Alcotest.test_case "captured ref flagged" `Quick test_r1_captured_ref;
          Alcotest.test_case "disjoint index ok" `Quick test_r1_disjoint_index_ok;
          Alcotest.test_case "item-local state ok" `Quick test_r1_item_local_ok;
          Alcotest.test_case "constant index flagged" `Quick
            test_r1_constant_index_flagged;
          Alcotest.test_case "named closure resolved" `Quick
            test_r1_named_closure;
          Alcotest.test_case "waiver downgrades" `Quick test_r1_waiver;
          Alcotest.test_case "mutable field flagged" `Quick test_r1_setfield;
        ] );
      ( "r2",
        [
          Alcotest.test_case "unverified read flagged" `Quick
            test_r2_unverified_read;
          Alcotest.test_case "dominated read ok" `Quick test_r2_dominated_read_ok;
          Alcotest.test_case "out-of-scope file ok" `Quick
            test_r2_out_of_scope_file;
          Alcotest.test_case "waiver downgrades" `Quick test_r2_waiver;
        ] );
      ( "r3",
        [
          Alcotest.test_case "catch-all flagged" `Quick test_r3_catch_all;
          Alcotest.test_case "specific handler ok" `Quick
            test_r3_specific_handler_ok;
          Alcotest.test_case "banned idents" `Quick test_r3_banned_idents;
          Alcotest.test_case "float = flagged" `Quick test_r3_float_eq;
          Alcotest.test_case "<> fast path ok" `Quick
            test_r3_float_neq_fast_path_ok;
          Alcotest.test_case "typed compare ok" `Quick test_r3_typed_compare_ok;
          Alcotest.test_case "waiver downgrades" `Quick test_r3_waiver;
          Alcotest.test_case "shadowed compare ok" `Quick
            test_r3_shadowed_compare_ok;
          Alcotest.test_case "Stdlib.compare still banned" `Quick
            test_r3_stdlib_compare_still_banned;
        ] );
      ( "r4",
        [
          Alcotest.test_case "unbounded retry flagged" `Quick
            test_r4_unbounded_flagged;
          Alcotest.test_case "attempt param flagged" `Quick
            test_r4_param_name_flagged;
          Alcotest.test_case "bounded ok" `Quick test_r4_bounded_ok;
          Alcotest.test_case "record cap ok" `Quick test_r4_record_cap_ok;
          Alcotest.test_case "non-retry recursion ok" `Quick
            test_r4_non_retry_recursion_ok;
          Alcotest.test_case "while retry flagged" `Quick
            test_r4_while_flagged;
          Alcotest.test_case "while bounded ok" `Quick
            test_r4_while_bounded_ok;
          Alcotest.test_case "non-retry while ok" `Quick
            test_r4_non_retry_while_ok;
          Alcotest.test_case "while waiver downgrades" `Quick
            test_r4_while_waiver;
          Alcotest.test_case "waiver downgrades" `Quick test_r4_waiver;
        ] );
      ( "r5",
        [
          Alcotest.test_case "outside kernel flagged" `Quick
            test_r5_outside_kernel_flagged;
          Alcotest.test_case "kernel module ok" `Quick test_r5_kernel_module_ok;
          Alcotest.test_case "Mat accessor flagged" `Quick
            test_r5_mat_accessor_flagged;
          Alcotest.test_case "bare reference flagged" `Quick
            test_r5_bare_reference_flagged;
          Alcotest.test_case "safe access ok" `Quick test_r5_safe_access_ok;
          Alcotest.test_case "waiver downgrades" `Quick test_r5_waiver;
          Alcotest.test_case "alias resolved" `Quick test_r5_alias_resolved;
        ] );
      ( "r6",
        [
          Alcotest.test_case "fixture locations" `Quick
            test_r6_fixture_locations;
          Alcotest.test_case "twin clean" `Quick test_r6_twin_clean;
          Alcotest.test_case "solver fixture locations" `Quick
            test_r6_solver_fixture_locations;
          Alcotest.test_case "solver twin clean" `Quick
            test_r6_solver_twin_clean;
        ] );
      ( "r7",
        [
          Alcotest.test_case "fixture locations" `Quick
            test_r7_fixture_locations;
          Alcotest.test_case "twin clean" `Quick test_r7_twin_clean;
        ] );
      ( "r8",
        [
          Alcotest.test_case "fixture locations" `Quick
            test_r8_fixture_locations;
          Alcotest.test_case "twin clean" `Quick test_r8_twin_clean;
        ] );
      ( "waivers",
        [
          Alcotest.test_case "nested let" `Quick test_waiver_nested_let;
          Alcotest.test_case "module level" `Quick test_waiver_module_level;
          Alcotest.test_case "stale waiver flagged" `Quick
            test_stale_waiver_flagged;
          Alcotest.test_case "stale check gated off" `Quick
            test_stale_waiver_gated_off;
          Alcotest.test_case "unverified answers only R2/R6" `Quick
            test_unverified_answers_only_r2_r6;
        ] );
      ( "driver",
        [
          Alcotest.test_case "fixtures fire" `Quick test_fixtures_fire;
          Alcotest.test_case "fixture counts" `Quick test_fixture_counts;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
          Alcotest.test_case "exit codes" `Quick test_run_exit_codes;
          Alcotest.test_case "rule selection" `Quick test_rule_selection;
          Alcotest.test_case "json report" `Quick test_json_report;
          Alcotest.test_case "json escape" `Quick test_json_escape;
          Alcotest.test_case "syntax error" `Quick test_syntax_error_reported;
          Alcotest.test_case "baseline roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "baseline stale entry" `Quick
            test_baseline_stale_entry;
          Alcotest.test_case "sarif report" `Quick test_sarif_report;
          Alcotest.test_case "sarif suppressions" `Quick
            test_sarif_suppressions;
        ] );
    ]
