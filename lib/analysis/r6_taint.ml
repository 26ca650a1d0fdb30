(* R6 — unverified-data taint in the FT drivers.

   The paper's detection guarantee is only as strong as the discipline
   that every value produced by a checksummed BLAS-3 kernel (or a
   checksum encoder) passes through a verify — [Verify.compare]/
   [compare_batch] after PR 6, a [verify*] helper, or a recovery rung —
   before anything else consumes it. R2 checks a syntactic shadow of
   this ("some verify call appears earlier in the function"); R6 checks
   the dataflow itself: a binding whose value comes from a taint source
   stays tainted until a sanitizer mentions it, and any other call that
   reads it (or that consumes a source's result directly as a nested
   argument) is a finding.

   Interprocedural via the index summaries: a driver helper returning
   [Blas3.gemm_alloc ...] is itself a source at its call sites, and a
   helper that verifies is itself a sanitizer.

   Scope: the resilience drivers — ft.ml, ft_lu.ml, ft_qr.ml, their
   shared ladder recovery.ml, resilient.ml — and the fault-tolerant
   solver harness, cg.ml, whose
   verification points are the [residual_check] true-residual
   recomputations. Waive a deliberately unverified read with
   [[@abft.unverified "reason"]] on the producing or consuming call. *)

let rule_id = "R6"

let scope_basenames =
  [ "ft.ml"; "ft_lu.ml"; "ft_qr.ml"; "recovery.ml"; "resilient.ml"; "cg.ml" ]

let path_str p = String.concat "." p

let check (idx : Index.t) =
  let findings = ref [] in
  let add ~loc ~waived ~reason msg =
    findings :=
      Finding.make ~rule:rule_id ~loc:(Ir.to_location loc) ~waived
        ?waiver_reason:reason msg
      :: !findings
  in
  List.iter
    (fun (fs : Ir.file_summary) ->
      if List.mem (Filename.basename fs.file) scope_basenames then
        List.iter
          (fun (d : Ir.def) ->
            let current = d.Ir.def_module in
            let env : (string, Ir.waiver * string) Hashtbl.t =
              Hashtbl.create 8
            in
            List.iter
              (fun (ev : Ir.event) ->
                match ev with
                | Ir.Call c ->
                    if Index.is_source idx ~current c.path then (
                      match c.bound with
                      | Some x ->
                          Hashtbl.replace env x (c.waiver, path_str c.path)
                      | None -> ())
                    else if Index.is_sanitizer idx ~current c.path then
                      List.iter (Hashtbl.remove env) c.args
                    else begin
                      List.iter
                        (fun x ->
                          match Hashtbl.find_opt env x with
                          | None -> ()
                          | Some (w, src) ->
                              (* report each tainted binding once *)
                              Hashtbl.remove env x;
                              let waived =
                                Ir.is_waived w || Ir.is_waived c.waiver
                              in
                              let reason =
                                match Ir.waiver_reason c.waiver with
                                | Some r -> Some r
                                | None -> Ir.waiver_reason w
                              in
                              add ~loc:c.call_loc ~waived ~reason
                                (Printf.sprintf
                                   "unverified data read: [%s] comes from %s \
                                    and reaches %s without a verify or \
                                    recovery rung in between"
                                   x src (path_str c.path)))
                        c.args;
                      List.iter
                        (fun (p, w) ->
                          if Index.is_source idx ~current p then
                            let waived =
                              Ir.is_waived w || Ir.is_waived c.waiver
                            in
                            let reason =
                              match Ir.waiver_reason w with
                              | Some r -> Some r
                              | None -> Ir.waiver_reason c.waiver
                            in
                            add ~loc:c.call_loc ~waived ~reason
                              (Printf.sprintf
                                 "unverified data read: the result of %s \
                                  flows directly into %s without a verify \
                                  or recovery rung in between"
                                 (path_str p) (path_str c.path)))
                        c.arg_calls
                    end
                | _ -> ())
              d.Ir.events)
          fs.defs)
    (Index.files idx);
  List.rev !findings
