(* Counting maintenance of one [Rules] component — derivation counts
   with Backward/Forward search and the well-founded support index,
   healed after every run — and the count-table (re)build behind it.
   The only module that knows the count-cell encoding; see {!Maint.env}
   for what [run] reads. *)

open Maint

(* ---- counting maintenance helpers ------------------------------- *)

(* Does the rule read its own component positively (recursion)? *)
let is_recursive comp_preds (r : Ast.rule) =
  List.exists
    (function
      | Ast.Pos a -> Hashtbl.mem comp_preds a.Ast.pred
      | Ast.Neg _ | Ast.Cmp _ -> false)
    r.Ast.body

(* The single in-component positive body atom of a linear recursive
   rule, as (original position, predicate); [None] for exit rules and
   for non-linear recursion. Only derivations through a linear rule
   carry a usable supporter witness: with two in-component atoms the
   well-founded level of a derivation is the max over both, which a
   single witness cannot name — such derivations stay out of [low]
   (an undercount, the safe direction). *)
let linear_pos comp_preds (r : Ast.rule) =
  let found = ref [] in
  List.iteri
    (fun i lit ->
      match lit with
      | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred ->
        found := (i, a.Ast.pred) :: !found
      | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
    r.Ast.body;
  match !found with [ (i, p) ] -> Some (i, p) | _ -> None

(* A rule's supporter-witness hook for {!Plan.exec_rule}, paired with a
   reader of the level [level_of] gave the supporter of the derivation
   just emitted — [max_int] for rules {!linear_pos} rejects. *)
let witness comp_preds level_of (r : Ast.rule) =
  match linear_pos comp_preds r with
  | None -> (None, fun () -> max_int)
  | Some (w, p) ->
    let supr = ref max_int in
    (Some (w, fun tup -> supr := level_of p tup), fun () -> !supr)

(* Is every recursive rule linear? Then every recursive derivation
   names its supporter, so the index can vouch for each tuple it
   levels, and the backward pool can start from the decrements. *)
let all_linear comp_preds prs =
  List.for_all
    (fun pr ->
      (not (is_recursive comp_preds pr.rule)) || linear_pos comp_preds pr.rule <> None)
    prs

module Levels = Set.Make (Int)

(* One tuple of the healing pass's member set (see [run]'s [heal]):
   its cell, the level it entered with, the least level a certified
   witness allows ([key]), whether that level is final, the witness
   of each of its derivations, and each derivation it witnesses. *)
type heal_member = {
  hpred : string;
  htup : Relation.tuple;
  hcell : Relation.count_cell;
  old_level : int;
  mutable key : int;
  mutable fin : bool;
  mutable witnesses : (string * Relation.tuple * Relation.count_cell) list;
  mutable consumers : (string * Relation.tuple * Relation.count_cell) list;
}

(* Fire every rule at each in-component positive position whose
   predicate has tuples in [round], joining earlier positions against
   [view] and later ones against [late_view]. [emit hpred], resolved
   once per rule, receives each derivation's supporter level (see
   [witness]) and head. The recount fixpoint and the cascade rounds
   both enumerate through here. *)
let fire_in_comp comp_preds ~level_of ~view ~late_view ~round ~work prs emit =
  List.iter
    (fun pr ->
      let r = pr.rule in
      let witness, sup = witness comp_preds level_of r in
      let emit = emit r.Ast.head.Ast.pred in
      List.iteri
        (fun i lit ->
          match lit with
          | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred -> (
            match Hashtbl.find_opt round a.Ast.pred with
            | Some delta when Relation.cardinality delta > 0 ->
              Plan.exec_rule ?witness ~view ~late_view ~delta:(i, delta) ~work
                ~on_derived:(fun h -> emit (sup ()) h)
                pr.ex
            | Some _ | None -> ())
          | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
        r.Ast.body)
    prs

(* [pred]'s count table in a predicate-keyed table, created on first
   use — as {!Maint.delta_rel} is for relations *)
let counts_in tbl pred =
  match Hashtbl.find_opt tbl pred with
  | Some c -> c
  | None ->
    let c = Relation.counts_create () in
    Hashtbl.add tbl pred c;
    c

(* [tup]'s cell in [pred]'s table of a predicate-keyed count table *)
let cell_in tbl pred tup =
  match Hashtbl.find_opt tbl pred with Some c -> Relation.count_find c tup | None -> None

(* that cell's level, [max_int] when there is no cell *)
let level_in tbl pred tup =
  match cell_in tbl pred tup with Some cell -> cell.Relation.level | None -> max_int

(* (Re)build a [Rules] component's derivation-count side tables — and
   the well-founded support index — against [view], level-stratified:

   - exit pass: each exit rule's base plan enumerates its derivations
     in one full join; heads get [exits] and level 0 (an exit
     derivation is acyclic support by construction);
   - recursive fixpoint: recursive-rule derivations are enumerated
     semi-naively over the *leveled* subset of the component — round
     [r]'s delta is the set of tuples first leveled in round [r - 1],
     telescoped through {!Plan.run}'s [late_view] so each derivation
     is counted exactly once — giving exact [recs] and, as a
     byproduct, iteration levels: a tuple first derivable in round [r]
     gets level [r]. [low] counts the derivations of linear rules
     whose witness supporter has a *cell* level strictly below the
     head's level; pinned supporters (no cell) and non-linear rules
     contribute nothing, so [low] may undercount but never overcounts;
   - stall: when the deltas dry up with component tuples still
     unleveled, their support runs through base facts listed for
     derived predicates (which no rule re-derives). All still-unleveled
     present tuples are pinned at level 0 — without cells, so the
     settle path keeps treating such base facts defensively — and join
     the next delta, so their consumers' derivations are still
     enumerated exactly once and the fixpoint resumes.

   Attaches fresh tables and returns them keyed by head predicate; the
   caller stamps them synced once store and counts agree. *)
let recount_comp ctx (pc : prepared_comp) prs ~view ~work =
  let is_rec = is_recursive pc.comp_preds in
  let counts_of : (string, Relation.counts) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun pr ->
      let pred = pr.rule.Ast.head.Ast.pred in
      if not (Hashtbl.mem counts_of pred) then
        Hashtbl.add counts_of pred (Relation.counts_attach (head_rel ctx pr.rule)))
    prs;
  List.iter
    (fun pr ->
      if not (is_rec pr.rule) then begin
        let c = Hashtbl.find counts_of pr.rule.Ast.head.Ast.pred in
        Plan.exec_rule ~view ~work
          ~on_derived:(fun tup ->
            let cell = Relation.count_cell c tup in
            cell.Relation.exits <- cell.Relation.exits + 1;
            cell.Relation.level <- 0)
          pr.ex
      end)
    prs;
  let rec_prs = List.filter (fun pr -> is_rec pr.rule) prs in
  if rec_prs <> [] then begin
    let leveled : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    let pinned : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    let in_comp p = Hashtbl.mem pc.comp_preds p in
    let leveled_view =
      {
        Matcher.mem =
          (fun p tup -> if in_comp p then mem_in leveled p tup else view.Matcher.mem p tup);
        iter_matching =
          (fun p ~col ~value f ->
            if in_comp p then (
              match Hashtbl.find_opt leveled p with
              | Some r -> Relation.iter_matching r ~col ~value f
              | None -> ())
            else view.Matcher.iter_matching p ~col ~value f);
        iter = (fun p f -> if in_comp p then iter_net leveled p f else view.Matcher.iter p f);
      }
    in
    (* round 1's delta: the exit-leveled tuples *)
    let round = ref (Hashtbl.create 4 : (string, Relation.t) Hashtbl.t) in
    Hashtbl.iter
      (fun pred c ->
        Relation.counts_iter
          (fun tup cell ->
            if cell.Relation.level = 0 then begin
              ignore (add_to leveled pred tup);
              ignore (add_to !round pred tup)
            end)
          c)
      counts_of;
    let r = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      if any_live !round then begin
        incr r;
        let cur = !round in
        let next = Hashtbl.create 4 in
        let late = overlay_view ~plus:no_overlay ~minus:cur leveled_view in
        fire_in_comp pc.comp_preds ~level_of:(level_in counts_of) ~view:leveled_view
          ~late_view:late ~round:cur ~work rec_prs (fun hpred ->
            let c = Hashtbl.find counts_of hpred in
            fun s h ->
              let cell = Relation.count_cell c h in
              cell.Relation.recs <- cell.Relation.recs + 1;
              if cell.Relation.level < max_int then begin
                if s < cell.Relation.level then cell.Relation.low <- cell.Relation.low + 1
              end
              else if not (mem_in pinned hpred h) then begin
                (* first derivable this round: will get level [r];
                   staged so it joins the leveled set only at round
                   end *)
                if s < !r then cell.Relation.low <- cell.Relation.low + 1;
                ignore (add_to next hpred h)
              end);
        (* staged fresh levels are assigned only now: the round's views
           must not see mid-round additions *)
        Hashtbl.iter
          (fun pred srel ->
            let c = Hashtbl.find counts_of pred in
            Relation.iter
              (fun tup ->
                (match Relation.count_find c tup with
                | Some cell ->
                  if cell.Relation.level = max_int then cell.Relation.level <- !r
                | None -> ());
                ignore (add_to leveled pred tup))
              srel)
          next;
        round := next
      end
      else begin
        (* stalled: pin still-unleveled present tuples at level 0 *)
        let fresh = Hashtbl.create 4 in
        let any = ref false in
        Hashtbl.iter
          (fun pred () ->
            view.Matcher.iter pred (fun tup ->
                if not (mem_in leveled pred tup) then begin
                  ignore (add_to pinned pred tup);
                  ignore (add_to leveled pred tup);
                  ignore (add_to fresh pred tup);
                  any := true
                end))
          pc.comp_preds;
        if !any then round := fresh else continue_ := false
      end
    done
  end;
  (* a linear component's unvouched set: what the index cannot vouch
     for — only tuples leveled through pinned base facts *)
  if all_linear pc.comp_preds prs then
    Hashtbl.iter
      (fun _ c ->
        let u = ref [] in
        Relation.counts_iter
          (fun tup cell ->
            if cell.Relation.exits = 0 && cell.Relation.low = 0 then u := tup :: !u)
          c;
        Relation.counts_set_unvouched c !u)
      counts_of;
  counts_of

(* ---- counting maintenance (derivation counts + B/F search) ----

   The deletion-side replacement for DRed's overdelete/rederive:
   per-tuple derivation counts (split exit/recursive) live in
   {!Relation}'s side table and are maintained by signed delta
   propagation — a tuple dies exactly when its count reaches zero,
   so nothing is over-deleted and rederivation shrinks to a
   backward check of the few decremented-but-surviving tuples
   without exit support. Every enumeration uses the telescoped
   split-view form: the delta literal at body position i joins
   positions j < i against the already-updated state and positions
   j > i against the not-yet-updated state ({!Plan.run}'s
   [late_view]), which makes the signed counts exact for arbitrary
   batches, self-joins included. Work inside the component is
   serialized as: external deltas (round 0), then death cascade
   rounds, then backward removals (looping with further cascades),
   then birth rounds — and each round's enumerations read exactly
   the store state that order implies: deaths/births already
   applied count as "early" state, the round's own delta restored/
   hidden via {!overlay_view} is the "late" state.

   The well-founded support index rides in the same cells: [level]
   is the recount fixpoint round of a tuple's first well-founded
   derivation, or the least candidate level of its birth (never
   lowered — that would misclassify later derivation deaths; the
   healing pass may raise it, debiting the consumers that counted
   it) and [low] counts surviving linear-rule derivations whose
   witness supporter sits at a strictly lower level. In a linear
   component the healing pass ends every run with [low >= 1] for
   each present exits = 0 tuple, or lists the tuple unvouched, so
   the next run's backward pool starts from the decrements instead
   of the whole component. The backward search pops its suspects in
   ascending level order and condemns each failed probe by filing
   a debt against every consumer derivation the index counted
   through it; a suspect with [exits = 0] but [low] minus its debt
   positive is then proven without any body re-evaluation — every
   supporter a surviving [low] entry can name sits at a strictly
   lower level, so it was resolved (and, if condemned, debited)
   before the suspect popped, and the chain bottoms out in level-0
   exit support. If a relied-on supporter is removed on a later
   outer round, that removal's cascade decrements [low] and
   re-suspects the dependent — the same repair that covers proofs
   through tuples the round later removes.
   Attribution is witness-based: every enumeration of a linear
   recursive rule extracts the tuple its single in-component atom
   matched ({!Plan.run}'s [witness]) and classifies the derivation
   against the head's level, looking supporter levels of tuples
   killed earlier in the run up in a morgue. Non-linear
   derivations never enter [low]: it may undercount (costing a
   probe), never overcount (which would be unsound). *)
let run env =
  let { ctx; pc; rules = prs; work; ring; phase_begin; phase_end } = env in
  let d = ctx.d and comp_preds = pc.comp_preds in
  let rec_rule = is_recursive comp_preds in
  let recursive = List.exists (fun pr -> rec_rule pr.rule) prs in
  let linear = recursive && all_linear comp_preds prs in
  let heads : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun pr ->
      let pred = pr.rule.Ast.head.Ast.pred in
      if not (Hashtbl.mem heads pred) then Hashtbl.add heads pred (head_rel ctx pr.rule))
    prs;
  (* counts: trust them only if stamped at the relations' current
     versions; any other mutation path (DRed, Eval, direct edits)
     bumped the version, so rebuild against the pre-update state.
     Comp relations are untouched at this point and upstream deltas
     cancel out under the old view, so the rebuild is exact. *)
  let stale =
    Hashtbl.fold
      (fun _ rel acc -> acc || Relation.counts_synced rel = None)
      heads false
  in
  let counts_of =
    if stale then recount_comp ctx pc prs ~view:ctx.old_view ~work
    else begin
      let tbl = Hashtbl.create 4 in
      Hashtbl.iter
        (fun pred rel ->
          match Relation.counts_synced rel with
          | Some c -> Hashtbl.add tbl pred c
          | None -> assert false)
        heads;
      tbl
    end
  in
  (* morgue: levels of tuples this run killed, so later death
     attribution can still classify derivations through them. One
     run is enough scope — across batches every surviving
     derivation's body tuples are alive, their levels in live
     cells. (Reuses [Relation.counts] as a tuple-keyed map.) *)
  let morgue : (string, Relation.counts) Hashtbl.t = Hashtbl.create 4 in
  let morgue_put pred tup level =
    if level < max_int then
      (Relation.count_cell (counts_in morgue pred) tup).Relation.level <- level
  in
  let canon_cell = cell_in counts_of in
  (* a supporter's level: its live cell's, else the morgue's, else
     unknown. Base facts listed for derived predicates carry no
     cell and so always read [max_int] — everywhere, so births and
     deaths through them classify identically (neither touches
     [low]). *)
  let sup_level pred tup =
    match canon_cell pred tup with
    | Some cell -> cell.Relation.level
    | None -> level_in morgue pred tup
  in
  (* scratch signed count deltas of the round being enumerated;
     [dec_touched] accumulates, over the whole run, every tuple that
     lost a derivation (recursive comps only) — in a linear component
     only the losses of an exit derivation or of a [low] entry, the
     only ones that can leave a tuple unvouched. It feeds the
     backward phase's trigger and pool and the healing pass. *)
  let sc : (string, Relation.counts) Hashtbl.t = Hashtbl.create 4 in
  let dec_touched : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
  let bump pred exit sign sup tup =
    let cell = Relation.count_cell (counts_in sc pred) tup in
    if exit then cell.Relation.exits <- cell.Relation.exits + sign
    else cell.Relation.recs <- cell.Relation.recs + sign;
    (* index attribution. The canonical store is frozen while a
       round enumerates, so the encoding branches on whether the
       tuple already has a canonical cell: existing cells
       accumulate a signed [low] delta (scratch [level] stays
       [max_int]; the merge treats equal levels additively), while
       an uncelled tuple is a newborn candidate — scratch [level]
       takes the least candidate level seen this round (0 for an
       exit derivation, supporter + 1 for a leveled linear one)
       and [low] nets the signed recursive derivations attaining
       it. The sign matters: a derivation that is born and dies
       within one batch (its delta literals enumerated in both
       directions, as when an edge is added while a negated fact
       that blocks it is added too) meets both signs at the same
       candidate level, and must leave no [low] entry behind. When
       all contributions at the least level cancel, the newborn
       keeps that level with [low = 0] — unvouched, never
       overcounted. *)
    let counted =
      match canon_cell pred tup with
      | Some ccell ->
        let counted = (not exit) && sup < ccell.Relation.level in
        if counted then cell.Relation.low <- cell.Relation.low + sign;
        counted
      | None ->
        if exit then begin
          if sign > 0 && cell.Relation.level > 0 then begin
            cell.Relation.level <- 0;
            cell.Relation.low <- 0
          end
        end
        else if sup < max_int then begin
          let cand = sup + 1 in
          if cand < cell.Relation.level then begin
            cell.Relation.level <- cand;
            cell.Relation.low <- sign
          end
          else if cand = cell.Relation.level then
            cell.Relation.low <- cell.Relation.low + sign
        end;
        false
    in
    if sign < 0 && recursive && (exit || counted || not linear) then
      ignore (add_to dec_touched pred tup)
  in
  let pending_births = ref (Hashtbl.create 4 : (string, Relation.t) Hashtbl.t) in
  let take_births () =
    let b = !pending_births in
    pending_births := Hashtbl.create 4;
    b
  in
  (* a cell whose tuple lost all support leaves its level in the morgue *)
  let drop_cell pred c tup level =
    morgue_put pred tup level;
    Relation.count_drop c tup
  in
  (* a present tuple's death: its cell dropped, the tuple removed from
     the store and recorded, and queued in [deaths] for the next
     cascade round *)
  let kill deaths pred c rel tup level =
    drop_cell pred c tup level;
    ignore (Relation.remove rel tup);
    record_remove d pred ~arity:(Relation.arity rel) tup;
    ignore (add_to deaths pred tup)
  in
  (* Apply a round's net signed deltas to the counts. Deaths (a
     present tuple's total reaching zero) are applied to the store
     immediately and returned for the next cascade round; births
     (positive support for an absent tuple) are only queued — they
     are applied after all deletion-side work, so the backward
     search never sees half-inserted state. Decrements aimed at a
     tuple with no cell are support through something this batch
     already killed: discarded, like the increments such a tuple's
     own count would have carried. *)
  let settle () =
    let deaths : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    (* merge the scratch [low] delta into a live cell; [low] stays
       within [0, recs] — the clamps only absorb attribution the
       index deliberately undercounts (e.g. a decrement whose birth
       predated the index), never inflate it *)
    let merge_low (cell : Relation.count_cell) dlow =
      let low = cell.Relation.low + dlow in
      let low = if low < 0 then 0 else low in
      cell.Relation.low <-
        (if low > cell.Relation.recs then cell.Relation.recs else low)
    in
    let fresh_cell c tup (dcell : Relation.count_cell) dex drec =
      let cell = Relation.count_cell c tup in
      cell.Relation.exits <- dex;
      cell.Relation.recs <- drec;
      cell.Relation.level <- dcell.Relation.level;
      let l = if dcell.Relation.low < 0 then 0 else dcell.Relation.low in
      cell.Relation.low <- (if l > drec then drec else l)
    in
    Hashtbl.iter
      (fun pred (round_counts : Relation.counts) ->
        let rel = Hashtbl.find heads pred in
        let c = Hashtbl.find counts_of pred in
        let birth tup = ignore (add_to !pending_births pred tup) in
        Relation.counts_iter
          (fun tup dcell ->
            let dex = dcell.Relation.exits and drec = dcell.Relation.recs in
            if dex <> 0 || drec <> 0 || dcell.Relation.low <> 0 then begin
              let present = Relation.mem rel tup in
              match Relation.count_find c tup with
              | Some cell ->
                cell.Relation.exits <- cell.Relation.exits + dex;
                cell.Relation.recs <- cell.Relation.recs + drec;
                merge_low cell dcell.Relation.low;
                if Relation.count_total cell > 0 then (if not present then birth tup)
                else if present then kill deaths pred c rel tup cell.Relation.level
                else drop_cell pred c tup cell.Relation.level
              | None ->
                (* present but never counted: a base fact listed
                   for this derived predicate. New derivations
                   attach a cell (with the newborn level the
                   scratch collected); stray decrements are bogus
                   and keep the fact pinned. Absent and uncounted,
                   positive support makes it a birth. *)
                if dex + drec > 0 then begin
                  fresh_cell c tup dcell dex drec;
                  if not present then birth tup
                  else if linear then
                    (* a listed fact the index never leveled: suspect it
                       like any other unvouched tuple *)
                    ignore (add_to dec_touched pred tup)
                end
            end)
          round_counts)
      sc;
    Hashtbl.reset sc;
    deaths
  in
  (* one in-component cascade round: the delta (this round's deaths
     or births, already applied to the store) drives every rule at
     its in-component positions; [pre] is the pre-round state for
     the late positions. For a linear rule the delta position is
     its only in-component atom, so the witness is the delta tuple
     itself; its level is read at emission time. Only scratch
     counts are written, so the non-deferred executor is safe. *)
  let enumerate_in_comp ~sign ~round ~pre =
    (* in-comp delta position ⇒ recursive rule: [exit] is false *)
    fire_in_comp comp_preds ~level_of:sup_level ~view:ctx.new_view ~late_view:pre
      ~round ~work prs (fun hpred -> bump hpred false sign)
  in
  let cascade_deaths deaths0 =
    phase_begin ();
    let pending = ref deaths0 in
    while any_live !pending do
      let round = !pending in
      let pre = overlay_view ~plus:round ~minus:no_overlay ctx.new_view in
      enumerate_in_comp ~sign:(-1) ~round ~pre;
      pending := settle ()
    done;
    phase_end Obs.Event.cnt_forward
  in
  (* Backward phase: of the tuples that lost a derivation and
     survived without exit support, decide which still have a
     well-founded derivation. Worklist search: a suspect is hidden,
     then checked goal-directedly — its constants substituted into
     each recursive rule's body, looking for one satisfying match
     in the visible state (exit-supported survivors, upstream
     relations, peers not under suspicion). Exit rules can't prove
     a suspect: exits = 0 means no exit derivation exists, and
     hiding suspects (all same-component) doesn't change exit-rule
     bodies. Tuples with exit support are well-founded and never
     enter the suspect pool. In a component whose recursive rules
     are all linear the pool is seeded from the decrements: the
     present exits = 0 tuples that lost an exit derivation or a
     [low] entry this run, plus the tables' unvouched tuples.
     Every other present exits = 0 tuple kept all its [low]
     entries and, by the invariant the healing pass restores at
     the end of each run, has [low >= 1]: it is index-vouched, so
     it stands or falls with the lower-level supporters its entries
     name, which the drain resolves first — an unfounded cycle
     cannot vouch for itself, since levels strictly fall along the
     entries. The hidden-peer rule below treats such a tuple
     exactly as a vouched pool member. A component with a
     non-linear recursive rule has derivations the index cannot
     name, so its pool stays every present exits = 0 tuple — a
     superset of any unfounded set, where a not-yet-suspected peer
     is itself suspect and hidden until resolved.

     Within the pool the well-founded support index replaces most
     probes with an O(1) check. Suspects resolve in ascending
     cell-level order. A probe failure condemns the suspect and
     debits every consumer derivation the index counted through
     it (the linear-rule matches where it is the strictly-lower-
     level witness) in a side ledger — the condemned tuple's level
     certificate is stale, so consumers must not rely on it. A
     suspect whose [low] minus its debt is positive is proven
     without evaluation: each surviving [low] entry names a
     supporter at a strictly lower level, every strictly-lower
     suspect was already resolved (debts filed) by the drain
     order, so that supporter is either outside the pool or
     proven, and induction on levels grounds the chain in exit
     support. The debt can overshoot when [low] undercounted —
     that costs a probe, never soundness.

     Peers whose probe failed only because a later-proven suspect
     was hidden at the time re-prove in a post-drain retry sweep
     that repeats until a pass removes nothing. What survives
     unproven is supported only through the failed set itself —
     an unfounded cycle — and is removed, its counts discarded.
     Because every proof rests only on visible tuples (resolved-
     proven or exit-supported, neither of which the removal can
     kill), one backward round per batch suffices — see the drain
     site for the cascade argument. *)
  let head_env (r : Ast.rule) tup =
    let env = ref [] and ok = ref true in
    List.iteri
      (fun i t ->
        if !ok then
          match t with
          | Ast.Var v -> (
            match List.assoc_opt v !env with
            | Some x -> if x <> tup.(i) then ok := false
            | None -> env := (v, tup.(i)) :: !env)
          | Ast.Const c ->
            if Symbol.const_of ctx.symbols tup.(i) <> c then ok := false
          | Ast.Agg _ -> ok := false)
      r.Ast.head.Ast.args;
    if !ok then Some !env else None
  in
  let rec_prs = List.filter (fun pr -> rec_rule pr.rule) prs in
  (* goal-directed body order, fixed once per component: positives
     ascending by live cardinality so the probe hits the small
     relation first (edge before path, in transitive-closure
     terms); negations and comparisons last — range restriction
     binds their variables once every positive has run. The head
     bindings seed the matcher's environment as interned codes, so
     bound atoms resolve by index probe or O(1) membership. *)
  let probe_prs =
    let sorted pr =
      let pos, rest =
        List.partition (function Ast.Pos _ -> true | _ -> false) pr.rule.Ast.body
      in
      let key = function
        | Ast.Pos a -> ctx.card a.Ast.pred
        | Ast.Neg _ | Ast.Cmp _ -> max_int
      in
      List.stable_sort (fun x y -> compare (key x) (key y)) pos @ rest
    in
    List.map (fun pr -> (pr, sorted pr)) rec_prs
  in
  let exception Proved in
  let provable ~hide pred tup =
    List.exists
      (fun (pr, body) ->
        pr.rule.Ast.head.Ast.pred = pred
        &&
        match head_env pr.rule tup with
        | None -> false
        | Some env -> (
          try
            Matcher.eval_body ~symbols:ctx.symbols ~view:hide ~env ~work
              ~on_env:(fun _ -> raise Proved)
              body;
            false
          with Proved -> true))
      probe_prs
  in
  let o1_hits = ref 0 and full_probes = ref 0 in
  (* linear recursive rules with their in-component atom position:
     the only derivations the level index counts, hence the only
     ones a condemnation needs to debit *)
  let lin_prs =
    List.filter_map
      (fun pr ->
        if rec_rule pr.rule then
          match linear_pos comp_preds pr.rule with
          | Some (i, p) -> Some (pr, i, p)
          | None -> None
        else None)
      prs
  in
  let backward_prove () =
    (* Linear component: the seeds are the present [exits = 0]
       tuples of [dec_touched] — those the index no longer vouches
       for ([low = 0]) need a probe, the rest are held for the O(1)
       tally — plus the unvouched tuples the index could not vouch
       for after the last run. Every other present [exits = 0] tuple
       kept each [low] entry it had, and with [low >= 1] for all of
       them a chain of strictly lower witnesses grounds each in exit
       support — nothing can be unfounded unless a seed needs a probe
       or some tuple is unvouched. The scan is O(touched). *)
    let probe_seeds = ref [] and vouched = ref [] in
    let triggered =
      if linear then begin
        let seed pred tup =
          match canon_cell pred tup with
          | Some cell
            when cell.Relation.exits = 0 && Relation.mem (Hashtbl.find heads pred) tup ->
            if cell.Relation.low = 0 then probe_seeds := (pred, tup, cell) :: !probe_seeds
            else vouched := cell :: !vouched
          | Some _ | None -> ()
        in
        Hashtbl.iter (fun pred srel -> Relation.iter (seed pred) srel) dec_touched;
        Hashtbl.iter
          (fun pred c ->
            List.iter
              (fun tup -> if not (mem_in dec_touched pred tup) then seed pred tup)
              (Relation.counts_unvouched c))
          counts_of;
        !probe_seeds <> []
      end
      else begin
        (* otherwise some present tuple must have lost a derivation
           and be left without exit support — only then can anything
           have become unfounded *)
        let triggered = ref false in
        Hashtbl.iter
          (fun pred srel ->
            if not !triggered then
              let rel = Hashtbl.find heads pred in
              Relation.iter
                (fun tup ->
                  if (not !triggered) && Relation.mem rel tup then
                    match canon_cell pred tup with
                    | Some cell when cell.Relation.exits = 0 -> triggered := true
                    | Some _ | None -> ())
                srel)
          dec_touched;
        !triggered
      end
    in
    if not triggered then begin
      o1_hits := !o1_hits + List.length !vouched;
      None
    end
    else begin
      (* suspect pool (see above): the seeds of a linear
         component, else every present tuple without exit support
         in the component — one cell inspection per tuple.

         Only probe-needing suspects materialize in the worklist:
         a tuple the index vouches for ([low - debt > 0]) is
         proven by its cell alone and never allocates an entry.
         Initially that admits exactly the [low = 0] suspects; when
         a condemnation's debits exhaust a consumer's [low], the
         consumer joins its level bucket dynamically, pool member
         or not (always strictly above the drain frontier, so
         ascending order is preserved — [pending_levels] keeps the
         not-yet-drained level set sorted). Each entry carries its
         cell to spare re-hashing at resolution. *)
      let buckets :
          (int, (string * Relation.tuple * Relation.count_cell) list ref) Hashtbl.t
          =
        Hashtbl.create 64
      in
      let pending_levels = ref Levels.empty in
      let suspects = ref 0 and probe_admitted = ref 0 in
      let admit pred tup cell =
        incr probe_admitted;
        let lvl = cell.Relation.level in
        (match Hashtbl.find_opt buckets lvl with
        | Some l -> l := (pred, tup, cell) :: !l
        | None -> Hashtbl.replace buckets lvl (ref [ (pred, tup, cell) ]));
        pending_levels := Levels.add lvl !pending_levels
      in
      (* the present-check guards against queued births (in counts,
         not yet in the store); with none pending, counts ⊆ store
         — [settle] drops the cell of anything it removes — and
         the per-tuple membership hash is skipped wholesale *)
      let check_mem = any_live !pending_births in
      if linear then
        List.iter (fun (pred, tup, cell) -> admit pred tup cell) (List.rev !probe_seeds)
      else
        Hashtbl.iter
          (fun pred c ->
            let rel = Hashtbl.find heads pred in
            Relation.counts_iter
              (fun tup cell ->
                if cell.Relation.exits = 0 && ((not check_mem) || Relation.mem rel tup)
                then begin
                  incr suspects;
                  if cell.Relation.low = 0 then admit pred tup cell
                end)
              c)
          counts_of;
      (* debts are filed straight into the consumer's cell ([debt]
         field): [low - debt] is the count of index entries still
         safe to rely on, read as field arithmetic — no side-ledger
         hashing on the O(1) path. [debited] remembers every
         touched cell so the debts are unwound before returning;
         cells persist across batches and must come back clean. *)
      let debited : Relation.count_cell list ref = ref [] in
      let condemned : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      let condemn pred tup lvl =
        (* first failure only: debit every consumer derivation the
           level index counted through this tuple (linear rules
           where it is the strictly-lower-level witness). A level
           of max_int never entered any [low], so there is nothing
           to debit. *)
        if
          lvl < max_int
          && add_to condemned pred tup
        then begin
          let singleton = Relation.create ~arity:(Array.length tup) in
          ignore (Relation.add singleton tup);
          List.iter
            (fun (pr, i, p) ->
              if p = pred then
                let hpred = pr.rule.Ast.head.Ast.pred in
                Plan.exec_rule ~view:ctx.new_view ~delta:(i, singleton) ~work
                  ~on_derived:(fun h ->
                    match canon_cell hpred h with
                    | Some hc
                      when lvl < hc.Relation.level && hc.Relation.exits = 0 ->
                      if hc.Relation.debt = 0 then debited := hc :: !debited;
                      hc.Relation.debt <- hc.Relation.debt + 1;
                      (* the debit that exhausts [low] turns an
                         index-vouched consumer into a probe case:
                         it joins its level bucket now (its level is
                         strictly above the frontier). Pending
                         births carry cells but are absent from the
                         store and must stay out of the pool. *)
                      if
                        hc.Relation.debt = hc.Relation.low
                        && ((not check_mem)
                           || Relation.mem (Hashtbl.find heads hpred) h)
                      then admit hpred (Array.copy h) hc
                    | Some _ | None -> ())
                  pr.ex)
            lin_prs
        end
      in
      (* frontier visibility. The pool is never materialized as a
         hidden-tuple relation: a suspect's fate is read straight
         off its cell against the drain frontier, so the O(1) path
         writes nothing at all. With [frontier] at level L:
           - exits > 0, or no cell: visible (never a suspect);
           - level > L: hidden (unresolved — the ascending drain
             has not reached it);
           - level < L: resolved — hidden iff its probe failed;
           - level = L: its O(1) fate is already stable. Debts
             against a level-L tuple arise only from condemnations
             at strictly lower levels, all complete before L
             drains, so [low] minus debt > 0 here means the tuple
             *will be* O(1)-proven — visible now, even mid-bucket.
             Otherwise it is visible only once its probe succeeds
             ([probe_proven], which retry successes also join —
             level-max_int tuples have no other route to
             visibility after the drain parks the frontier there. *)
      let failed : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      let probe_proven : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      let frontier = ref min_int in
      (* probes ask about one predicate many times in a row; a
         physical-equality memo spares the string hash per
         candidate the index bucket hands out *)
      let memo_pred = ref "" and memo_counts = ref None in
      let counts_for pred =
        if pred == !memo_pred then !memo_counts
        else begin
          memo_pred := pred;
          memo_counts := Hashtbl.find_opt counts_of pred;
          !memo_counts
        end
      in
      let hidden pred tup =
        match counts_for pred with
        | None -> false
        | Some c -> (
          match Relation.count_find c tup with
          | None -> false
          | Some cell ->
            cell.Relation.exits = 0
            &&
            let lvl = cell.Relation.level in
            if lvl > !frontier then true
            else if lvl < !frontier then mem_in failed pred tup
            else
              not
                (cell.Relation.low - cell.Relation.debt > 0
                || mem_in probe_proven pred tup))
      in
      let hide =
        let base = ctx.new_view in
        {
          Matcher.mem =
            (fun p tup -> base.Matcher.mem p tup && not (hidden p tup));
          iter_matching =
            (fun p ~col ~value f ->
              base.Matcher.iter_matching p ~col ~value (fun t ->
                  if not (hidden p t) then f t));
          iter =
            (fun p f ->
              base.Matcher.iter p (fun t -> if not (hidden p t) then f t));
        }
      in
      (* drain ascending. Every bucket entry needs its probe — the
         index-vouched majority never entered. A bucket is stable
         while draining: condemnations at level L debit only
         strictly-higher consumers, so dynamic admissions land in
         later buckets (possibly at levels unseen at admission,
         which is why the level set is consulted afresh each
         step). Suspects never admitted are O(1) proofs — counted
         by subtraction, having cost no work at all. *)
      let rec drain () =
        match Levels.min_elt_opt !pending_levels with
        | None -> ()
        | Some lvl ->
          pending_levels := Levels.remove lvl !pending_levels;
          frontier := lvl;
          List.iter
            (fun (pred, tup, cell) ->
              incr full_probes;
              if provable ~hide pred tup then
                ignore (add_to probe_proven pred tup)
              else begin
                ignore (add_to failed pred tup);
                condemn pred tup cell.Relation.level
              end)
            !(Hashtbl.find buckets lvl);
          drain ()
      in
      drain ();
      (* an O(1) proof: a vouched seed that no debit exhausted, or a
         swept suspect never admitted *)
      if linear then
        List.iter
          (fun (cell : Relation.count_cell) ->
            if cell.Relation.low - cell.Relation.debt > 0 then incr o1_hits)
          !vouched
      else o1_hits := !o1_hits + !suspects - !probe_admitted;
      frontier := max_int;
      (* retry sweep: a suspect that failed its probe only because
         a later-proven peer was hidden at the time re-proves here.
         Passes repeat until one removes nothing; what then remains
         is supported only through the failed set itself. The O(1)
         check cannot fire anew — [low] is fixed and debts only
         grow — so these are full probes, counted as such. *)
      let retry = ref true in
      while !retry do
        retry := false;
        let pending = ref [] in
        Hashtbl.iter
          (fun pred u ->
            Relation.iter
              (fun tup ->
                pending := (level_in counts_of pred tup, pred, tup) :: !pending)
              u)
          failed;
        List.iter
          (fun (_, pred, tup) ->
            let u = Hashtbl.find failed pred in
            if Relation.mem u tup then begin
              incr full_probes;
              if provable ~hide pred tup then begin
                ignore (Relation.remove u tup);
                ignore (add_to probe_proven pred tup);
                retry := true
              end
            end)
          (List.sort compare !pending)
      done;
      let deaths : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      let any = ref false in
      Hashtbl.iter
        (fun pred u ->
          if Relation.cardinality u > 0 then begin
            any := true;
            let rel = Hashtbl.find heads pred in
            let c = Hashtbl.find counts_of pred in
            Relation.iter
              (fun tup ->
                kill deaths pred c rel tup (level_in counts_of pred tup))
              u
          end)
        failed;
      (* unwind the debts — cells outlive this call *)
      List.iter (fun (c : Relation.count_cell) -> c.Relation.debt <- 0) !debited;
      if !any then Some deaths else None
    end
  in
  let apply_births pending =
    let applied : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    Hashtbl.iter
      (fun pred r ->
        if Relation.cardinality r > 0 then begin
          let rel = Hashtbl.find heads pred in
          let c = Hashtbl.find counts_of pred in
          Relation.iter
            (fun tup ->
              (* re-check: support queued earlier may have been
                 cancelled by later decrements *)
              match Relation.count_find c tup with
              | Some cell when Relation.count_total cell > 0 ->
                if Relation.add rel tup then begin
                  record_add d pred ~arity:(Relation.arity rel) tup;
                  ignore (add_to applied pred tup)
                end
              | Some _ | None -> ())
            r
        end)
      pending;
    applied
  in
  let born : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
  let rec birth_rounds round =
    if any_live round then begin
      if linear then
        Hashtbl.iter
          (fun pred r -> Relation.iter (fun tup -> ignore (add_to born pred tup)) r)
          round;
      let pre = overlay_view ~plus:no_overlay ~minus:round ctx.new_view in
      enumerate_in_comp ~sign:1 ~round ~pre;
      (* increments only: settle can queue further births but can
         produce no deaths *)
      ignore (settle ());
      birth_rounds (apply_births (take_births ()))
    end
  in
  (* Healing (linear components, after the births). The backward
     pool is seeded from the decrements, which is sound only while the
     index vouches ([low >= 1]) for every present [exits = 0] tuple
     outside the pool: a tuple a probe proved, a newborn through a
     pinned fact, or a consumer whose last lower witness died left
     with [low = 0] and would otherwise go unsuspected forever. The
     pass re-levels such tuples so they are vouched for again, and
     lists the ones it cannot reach in the tables' unvouched sets,
     which the next backward phase suspects.

     - Members: the candidates (touched this run or listed unvouched,
       still present, [exits = 0], [low = 0]) and, closed under
       consumers, every tuple whose [low] entries all run through a
       member — its certificate rests on an unvouched tuple. The
       closure files its debits in [debt], as the backward phase's
       condemnation does; a member's cell has [debt = low].
     - Levels: Dijkstra from the certified tuples (non-members with a
       level). A member's key is one more than the least level of a
       certified or finalized witness of one of its derivations; the
       least key finalizes first at [max old key] — a level is never
       lowered — and relaxes its member consumers. A finalized member
       rests on a witness finalized before it, so no certificate is
       circular.
     - Counts: a raised member debits each non-member consumer entry
       that counted it ([old < level <= new]) — such an entry was
       debited in the closure, so the consumer keeps [low >= 1] —
       and every member's [low] is recounted from its derivations
       at the final levels. Members left at [low = 0] (no certified
       derivation: support through pinned base facts) are listed
       unvouched.

     Returns the number of members re-leveled (finalized). *)
  let heal () =
    let members : (string * Relation.tuple, heal_member) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let queue = Queue.create () in
    let enlist hpred htup hcell =
      if not (Hashtbl.mem members (hpred, htup)) then begin
        let m =
          {
            hpred;
            htup;
            hcell;
            old_level = hcell.Relation.level;
            key = max_int;
            fin = false;
            witnesses = [];
            consumers = [];
          }
        in
        Hashtbl.add members (hpred, htup) m;
        order := m :: !order;
        Queue.add m queue
      end
    in
    let candidate pred tup =
      match canon_cell pred tup with
      | Some cell
        when cell.Relation.exits = 0
             && cell.Relation.low = 0
             && Relation.mem (Hashtbl.find heads pred) tup ->
        enlist pred tup cell
      | Some _ | None -> ()
    in
    Hashtbl.iter (fun pred r -> Relation.iter (candidate pred) r) dec_touched;
    Hashtbl.iter (fun pred r -> Relation.iter (candidate pred) r) born;
    Hashtbl.iter
      (fun pred c -> List.iter (candidate pred) (Relation.counts_unvouched c))
      counts_of;
    (* member closure over consumers, recording every consumer edge *)
    let debited : Relation.count_cell list ref = ref [] in
    while not (Queue.is_empty queue) do
      let m = Queue.pop queue in
      let singleton = Relation.create ~arity:(Array.length m.htup) in
      ignore (Relation.add singleton m.htup);
      List.iter
        (fun (pr, i, p) ->
          if p = m.hpred then
            let cpred = pr.rule.Ast.head.Ast.pred in
            Plan.exec_rule ~view:ctx.new_view ~delta:(i, singleton) ~work
              ~on_derived:(fun h ->
                match canon_cell cpred h with
                | None -> ()
                | Some cc ->
                  let h = Array.copy h in
                  m.consumers <- (cpred, h, cc) :: m.consumers;
                  if
                    m.old_level < cc.Relation.level
                    && cc.Relation.exits = 0
                    && cc.Relation.low > cc.Relation.debt
                  then begin
                    if cc.Relation.debt = 0 then debited := cc :: !debited;
                    cc.Relation.debt <- cc.Relation.debt + 1;
                    if cc.Relation.debt = cc.Relation.low then enlist cpred h cc
                  end)
              pr.ex)
        lin_prs
    done;
    let order = List.rev !order in
    let member pred tup (cell : Relation.count_cell) =
      if cell.Relation.exits > 0 || cell.Relation.low > cell.Relation.debt then None
      else Hashtbl.find_opt members (pred, tup)
    in
    (* certified witness level, [max_int] when none can be relied on *)
    let certified (pred, tup, (cell : Relation.count_cell)) =
      match member pred tup cell with
      | Some w when not w.fin -> max_int
      | Some _ | None -> cell.Relation.level
    in
    (* every derivation of a member, with its witness: a goal-directed
       enumeration of the probe bodies, reading the witness off the
       rule's one in-component atom *)
    let witness_prs =
      List.map
        (fun (pr, body) ->
          ( pr,
            body,
            List.find_map
              (function
                | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred -> Some a
                | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None)
              body
            |> Option.get ))
        probe_prs
    in
    List.iter
      (fun m ->
        List.iter
          (fun (pr, body, a) ->
            if pr.rule.Ast.head.Ast.pred = m.hpred then
              match head_env pr.rule m.htup with
              | None -> ()
              | Some env ->
                Matcher.eval_body ~symbols:ctx.symbols ~view:ctx.new_view ~env ~work
                  ~on_env:(fun env ->
                    let w =
                      Array.of_list
                        (List.map
                           (fun t ->
                             match Matcher.resolve_term ~symbols:ctx.symbols env t with
                             | Some v -> v
                             | None -> assert false)
                           a.Ast.args)
                    in
                    match canon_cell a.Ast.pred w with
                    | Some wc -> m.witnesses <- (a.Ast.pred, w, wc) :: m.witnesses
                    | None -> ())
                  body)
          witness_prs)
      order;
    let buckets : (int, heal_member list ref) Hashtbl.t = Hashtbl.create 16 in
    let keys = ref Levels.empty in
    let push m k =
      if k < m.key then begin
        m.key <- k;
        (match Hashtbl.find_opt buckets k with
        | Some l -> l := m :: !l
        | None -> Hashtbl.replace buckets k (ref [ m ]));
        keys := Levels.add k !keys
      end
    in
    List.iter
      (fun m ->
        List.iter
          (fun w ->
            let l = certified w in
            if l < max_int then push m (l + 1))
          m.witnesses)
      order;
    let healed = ref 0 in
    let rec finalize () =
      match Levels.min_elt_opt !keys with
      | None -> ()
      | Some k ->
        keys := Levels.remove k !keys;
        let l = Hashtbl.find buckets k in
        Hashtbl.remove buckets k;
        List.iter
          (fun m ->
            if (not m.fin) && m.key = k then begin
              m.fin <- true;
              incr healed;
              let lvl = max m.old_level k in
              m.hcell.Relation.level <- lvl;
              (* a tuple never leveled witnesses no [low] entry *)
              if lvl < max_int then
                List.iter
                  (fun (cpred, h, cc) ->
                    match member cpred h cc with
                    | Some c when not c.fin -> push c (lvl + 1)
                    | Some _ | None -> ())
                  m.consumers
            end)
          (List.rev !l);
        finalize ()
    in
    finalize ();
    List.iter
      (fun m ->
        let lvl = m.hcell.Relation.level in
        if lvl > m.old_level then
          List.iter
            (fun (cpred, h, (cc : Relation.count_cell)) ->
              if
                m.old_level < cc.Relation.level
                && cc.Relation.level <= lvl
                && member cpred h cc = None
                && cc.Relation.low > 0
              then cc.Relation.low <- cc.Relation.low - 1)
            m.consumers)
      order;
    let unvouched = Hashtbl.create 4 in
    List.iter
      (fun m ->
        let lvl = m.hcell.Relation.level in
        m.hcell.Relation.low <-
          List.fold_left
            (fun n (_, _, (wc : Relation.count_cell)) ->
              if wc.Relation.level < lvl then n + 1 else n)
            0 m.witnesses;
        if m.hcell.Relation.low = 0 then
          Hashtbl.replace unvouched m.hpred
            (m.htup :: Option.value ~default:[] (Hashtbl.find_opt unvouched m.hpred)))
      order;
    List.iter (fun (c : Relation.count_cell) -> c.Relation.debt <- 0) !debited;
    Hashtbl.iter
      (fun pred c ->
        Relation.counts_set_unvouched c
          (Option.value ~default:[] (Hashtbl.find_opt unvouched pred)))
      counts_of;
    !healed
  in
  begin
    (* round 0: propagate the external update's signed deltas.
       Added tuples of a positive literal derive with sign +1 and
       removed with -1; for a negated literal the signs flip and
       the flipped-positive plan ranges over the change. Late
       positions read the old view — comp relations are untouched
       during the round, so old and new agree on them, exactly the
       "externals first" serialization. *)
    phase_begin ();
    List.iter
      (fun pr ->
        let r = pr.rule in
        let hpred = r.Ast.head.Ast.pred in
        let exit = not (rec_rule r) in
        (* a recursive rule's in-comp atom is an ordinary Match
           step here (the delta is external), which is what the
           witness mechanism is for; flipped plans keep body
           positions, so the same witness serves them *)
        let witness, sup = witness comp_preds sup_level r in
        let exec ex delta sign =
          Plan.exec_rule ?witness ~view:ctx.new_view ~late_view:ctx.old_view
            ~delta ~work
            ~on_derived:(fun h -> bump hpred exit sign (sup ()) h)
            ex
        in
        List.iteri
          (fun i lit ->
            List.iter
              (fun (tbl, sign) ->
                match lit with
                | Ast.Pos a
                  when (not (Hashtbl.mem comp_preds a.Ast.pred)) && nonempty tbl a.Ast.pred
                  ->
                  exec pr.ex (i, Hashtbl.find tbl a.Ast.pred) sign
                | Ast.Neg a when nonempty tbl a.Ast.pred ->
                  exec (snd (flipped_for pr i)) (i, Hashtbl.find tbl a.Ast.pred) (-sign)
                | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
              [ (d.added, 1); (d.removed, -1) ])
          r.Ast.body)
      prs;
    let deaths0 = settle () in
    phase_end Obs.Event.cnt_propagate;
    cascade_deaths deaths0;
    if recursive then begin
      phase_begin ();
      let more = backward_prove () in
      phase_end Obs.Event.cnt_backward;
      (match more with
      | None -> ()
      | Some deaths ->
        (* One round suffices. Every surviving suspect's proof was
           checked against visible tuples only — resolved-proven
           peers and exit-supported tuples — and none of those die
           here: the cascade strips exactly the derivations running
           through the removed unfounded set, so each survivor
           keeps its witnessing derivation and a positive count,
           and exit counts are untouched (exit-rule bodies hold no
           component predicates). Nothing new becomes unfounded:
           what the cascade adds to [dec_touched] matters only to
           the healing pass. *)
        cascade_deaths deaths);
      if Obs.Ring.enabled ring then begin
        Obs.Ring.emit ring ~kind:Obs.Event.cnt_o1_hit ~a:!o1_hits ~b:pc.comp;
        Obs.Ring.emit ring ~kind:Obs.Event.cnt_full_probe ~a:!full_probes ~b:pc.comp
      end
    end;
    phase_begin ();
    birth_rounds (apply_births (take_births ()));
    phase_end Obs.Event.cnt_forward;
    if linear then begin
      phase_begin ();
      let healed = heal () in
      phase_end Obs.Event.cnt_backward;
      if Obs.Ring.enabled ring then
        Obs.Ring.emit ring ~kind:Obs.Event.cnt_heal ~a:healed ~b:pc.comp
    end;
    Hashtbl.iter (fun _ rel -> Relation.counts_sync rel) heads
  end

(* Build and stamp one component's count tables against the live
   database, for {!Incremental.prime}: one full-join pass per rule. *)
let prime ctx pc ~work =
  match pc.body with
  | Extensional | Aggregate_rule _ -> ()
  | Rules prs ->
    ignore (recount_comp ctx pc prs ~view:ctx.new_view ~work);
    Array.iter
      (fun p ->
        match Database.find ctx.db ctx.anal.Stratify.predicates.(p) with
        | Some rel -> Relation.counts_sync rel
        | None -> ())
      pc.members
