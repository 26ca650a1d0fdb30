(* R2 — verify-before-read discipline in the FT drivers.

   Enhanced Online-ABFT's invariant (PAPER.md) is that every block is
   verified immediately before it is read. In the FT drivers
   ([lib/cholesky/ft.ml], [lib/cholesky/right_looking.ml],
   [lib/qr/ft_qr.ml] and their shared ladder [lib/cholesky/recovery.ml])
   that means a BLAS-3 call that consumes blocks —
   [Blas3.gemm]/[gemm_alloc]/[syrk]/[trsm]/[trmm]/[symm] — must be
   dominated, within the same top-level function, by a verification
   call: anything whose name starts with [verify] ([Verify.verify],
   [verify_blocks], [verify_panel], [Verify.verify_batch], ...) or
   [Verify.check]/[Panelchk.check].

   Dominance is approximated syntactically: some verification call must
   occur at an earlier source position inside the same top-level [let].
   That is deliberately coarse — the scheme decides *which* blocks to
   verify at run time — but it guarantees no driver function ships
   BLAS-3 reads with no verification step at all.

   A BLAS-3 call whose inputs are legitimately unverified (e.g. the
   final residual check, which runs *after* verification on the
   finished factor) must say so explicitly:

     (Blas3.gemm_alloc l l [@abft.unverified "why this read is safe"])

   The waiver is per-call and is reported (as waived) in the JSON
   output, so every exception to the invariant stays visible. *)

open Ppxlib

let rule_id = "R2"

(* Only the FT drivers carry the verify-before-read obligation. *)
let in_scope_basenames =
  [ "ft.ml"; "ft_qr.ml"; "recovery.ml"; "right_looking.ml" ]

let blas_reads = [ "gemm"; "gemm_alloc"; "syrk"; "trsm"; "trmm"; "symm" ]

let is_verify_call (p : Longident.t) =
  let last = Ast_util.path_last p in
  let lower = String.lowercase_ascii last in
  String.length lower >= 6 && String.sub lower 0 6 = "verify"
  ||
  (last = "check"
  &&
  match List.rev (Ast_util.path_parts p) with
  | _ :: m :: _ -> m = "Verify" || m = "Panelchk"
  | _ -> false)

let is_blas_read (p : Longident.t) =
  List.mem (Ast_util.path_last p) blas_reads
  &&
  match List.rev (Ast_util.path_parts p) with
  | _ :: m :: _ -> m = "Blas3"
  | _ -> false

let pos_before (a : Location.t) (b : Location.t) =
  a.loc_start.pos_lnum < b.loc_start.pos_lnum
  || (a.loc_start.pos_lnum = b.loc_start.pos_lnum
     && a.loc_start.pos_cnum < b.loc_start.pos_cnum)

let check ~file (str : structure) =
  if not (List.mem (Filename.basename file) in_scope_basenames) then []
  else begin
    let findings = ref [] in
    (* One top-level binding at a time: collect verify-call positions
       and BLAS-3 read positions, then flag reads no verify precedes. *)
    let check_binding (vb : value_binding) =
      let verifies = ref [] in
      let reads = ref [] in
      let it =
        object
          inherit Ast_traverse.iter as super

          method! expression e =
            (match e.pexp_desc with
            | Pexp_apply (f, _) -> (
                match Ast_util.ident_path f with
                | Some p when is_verify_call p ->
                    verifies := e.pexp_loc :: !verifies
                | Some p when is_blas_read p ->
                    reads := (e, p) :: !reads
                | _ -> ())
            | _ -> ());
            super#expression e
        end
      in
      it#expression vb.pvb_expr;
      List.iter
        (fun ((e : expression), p) ->
          let dominated =
            List.exists (fun v -> pos_before v e.pexp_loc) !verifies
          in
          if not dominated then begin
            let msg =
              Printf.sprintf
                "%s reads blocks with no preceding verification in this \
                 function; verify inputs first or mark the call \
                 [@abft.unverified \"reason\"]"
                (Ast_util.path_string p)
            in
            let f =
              match Ast_util.waiver_attr "abft.unverified" e.pexp_attributes with
              | None -> Finding.make ~rule:rule_id ~loc:e.pexp_loc msg
              | Some reason ->
                  Finding.make ~rule:rule_id ~loc:e.pexp_loc ~waived:true
                    ?waiver_reason:reason msg
            in
            findings := f :: !findings
          end)
        (List.rev !reads)
    in
    List.iter
      (fun (item : structure_item) ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter check_binding vbs
        | _ -> ())
      str;
    List.rev !findings
  end
