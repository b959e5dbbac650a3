(* DRed (delete / rederive / insert) maintenance of one [Rules]
   component; see {!Incremental} for the algorithm and {!Maint.env} for
   what it runs against. *)

open Maint

(* ---- DRed: one round loop for phases A (overdelete) and C
   (insert) ----
   Round 0 fires every rule at its external trigger positions (the
   [pos] deltas of upstream positive literals, the [neg] deltas of
   negated ones through their flipped plans); each later round
   cascades the tuples the previous round staged through the
   in-component positive positions, until a round stages nothing.
   Enumerations read [view] through {!Plan.exec_rule_deferred},
   pre-filtered by [keep], against state frozen for the round; once
   every rule has fired, each candidate goes to [stage], which applies
   it to the store and says whether it was new. Duplicates across
   rules are dropped there. *)
let dred_phase env ~view ~pos ~neg ~keep ~stage =
  let comp_preds = env.pc.comp_preds in
  let round fire =
    let acc = ref [] in
    let exec (r : Ast.rule) ex delta =
      Plan.exec_rule_deferred ~view ~delta ~work:env.work ~keep:(keep r)
        ~on_derived:(fun tup -> acc := (r, tup) :: !acc)
        ex
    in
    List.iter (fire exec) env.rules;
    let next = Hashtbl.create 4 in
    List.iter
      (fun ((r : Ast.rule), tup) ->
        if stage r tup then ignore (add_to next r.Ast.head.Ast.pred tup))
      (List.rev !acc);
    next
  in
  let rec cascade prev =
    if any_live prev then
      cascade
        (round (fun exec pr ->
             List.iteri
               (fun i lit ->
                 match lit with
                 | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred -> (
                   match Hashtbl.find_opt prev a.Ast.pred with
                   | Some delta when Relation.cardinality delta > 0 ->
                     exec pr.rule pr.ex (i, delta)
                   | Some _ | None -> ())
                 | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
               pr.rule.Ast.body))
  in
  cascade
    (round (fun exec pr ->
         List.iteri
           (fun i lit ->
             match lit with
             | Ast.Pos a
               when (not (Hashtbl.mem comp_preds a.Ast.pred))
                    && nonempty pos a.Ast.pred ->
               exec pr.rule pr.ex (i, Hashtbl.find pos a.Ast.pred)
             | Ast.Neg a when nonempty neg a.Ast.pred ->
               let fr, fex = flipped_for pr i in
               exec fr fex (i, Hashtbl.find neg a.Ast.pred)
             | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
           pr.rule.Ast.body))

let run env =
  let ctx = env.ctx in
  let d = ctx.d and head_rel = head_rel ctx in
  (* ---- Phase A: overdeletion against the old state. Removing
     from the live relation while recording into [d.removed]
     cancels out under the old view, which therefore stays fixed
     for the whole phase. ---- *)
  env.phase_begin ();
  let overdeleted : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
  dred_phase env ~view:ctx.old_view ~pos:d.removed ~neg:d.added
    ~keep:(fun r -> Relation.mem (head_rel r))
    ~stage:(fun r tup ->
      let pred = r.Ast.head.Ast.pred and arity = head_arity r in
      if Relation.remove (head_rel r) tup then begin
        record_remove d pred ~arity tup;
        ignore (Relation.add (delta_rel overdeleted pred ~arity) tup);
        true
      end
      else false);
  env.phase_end Obs.Event.dred_delete;
  (* ---- Phase B: rederivation over the new state ---- *)
  env.phase_begin ();
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun pr ->
        let r = pr.rule in
        match Hashtbl.find_opt overdeleted r.Ast.head.Ast.pred with
        | Some o when Relation.cardinality o > 0 ->
          Plan.exec_rule_deferred ~view:ctx.new_view ~work:env.work
            ~keep:(Relation.mem o)
            ~on_derived:(fun tup ->
              if Relation.mem o tup then begin
                let pred = r.Ast.head.Ast.pred in
                if Relation.add (head_rel r) tup then begin
                  record_add d pred ~arity:(head_arity r) tup;
                  ignore (Relation.remove o tup);
                  changed := true
                end
              end)
            pr.ex
        | Some _ | None -> ())
      env.rules
  done;
  env.phase_end Obs.Event.dred_rederive;
  (* ---- Phase C: insertion against the new state ---- *)
  env.phase_begin ();
  dred_phase env ~view:ctx.new_view ~pos:d.added ~neg:d.removed
    ~keep:(fun r ->
      let rel = head_rel r in
      fun tup -> not (Relation.mem rel tup))
    ~stage:(fun r tup ->
      if Relation.add (head_rel r) tup then begin
        record_add d r.Ast.head.Ast.pred ~arity:(head_arity r) tup;
        true
      end
      else false);
  env.phase_end Obs.Event.dred_insert
