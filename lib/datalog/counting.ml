(* Counting maintenance of one [Rules] component — derivation counts
   with Backward/Forward search and the well-founded support index,
   healed after every run — and the count (re)build behind it. The
   only module that knows the count-cell encoding; see {!Maint.env}
   for what [run] reads. *)

open Maint

(* ---- counting maintenance helpers ------------------------------- *)

(* A rule is recursive when it reads its own component positively.
   Only derivations through a linear rule — exactly one in-component
   atom — carry a usable supporter witness: with two in-component
   atoms the well-founded level of a derivation is the max over both,
   which a single witness cannot name — such derivations stay out of
   [low] (an undercount, the safe direction). *)
let is_recursive pr = pr.in_comp <> []

let is_linear pr = match pr.in_comp with [ _ ] -> true | [] | _ :: _ :: _ -> false

(* Is every recursive rule linear? Then every recursive derivation
   names its supporter, so the index can vouch for each tuple it
   levels, and the backward pool can start from the decrements. *)
let all_linear prs = List.for_all (fun pr -> (not (is_recursive pr)) || is_linear pr) prs

(* The flags [run] keeps in [Relation.count_cell.mark], all clear
   between rounds but [spare]'s, and between runs all of them:
   - [touched]: on its head's [touched] list; the d-fields are live;
   - [fresh]: a newborn candidate of the open round — [level] is the
     least candidate level seen and [dlow] nets the derivations at it;
   - [spare]: kept in its head's [newborn] table, not in a store slot.
   The healing pass numbers its members in [mark] instead. *)
let touched = 1

let fresh = 2

let spare = 4

module Levels = Set.Make (Int)

(* One tuple of the healing pass's member set (see [run]'s [heal]):
   its cell, the level it entered with, the least level a certified
   witness allows ([key]), whether that level is final, the witness
   cell of each of its derivations, and the head cell of each
   derivation it witnesses. *)
type heal_member = {
  h : head;
  cell : Relation.count_cell;
  old_level : int;
  mutable key : int;
  mutable fin : bool;
  mutable witnesses : Relation.count_cell list;
  mutable consumers : Relation.count_cell list;
}

(* Fire every rule at each in-component positive position whose
   predicate has tuples in [round], joining earlier positions against
   [view] and later ones against [late_view]. [emit pr], resolved once
   per rule, receives each derivation's supporter level and head. A
   linear rule's delta position is its one in-component atom, so the
   supporter is the delta tuple itself, whose level [level_of h delta
   tup] reads; other rules report [max_int]. The recount fixpoint and
   the cascade rounds both enumerate through here. *)
let fire_in_comp ~level_of ~view ~late_view ~round ~work prs emit =
  List.iter
    (fun pr ->
      let emit = emit pr and linear = is_linear pr in
      List.iter
        (fun (i, h) ->
          match Hashtbl.find_opt round h.pred with
          | Some delta when Relation.cardinality delta > 0 ->
            if linear then begin
              let sup = ref max_int in
              Plan.exec_rule
                ~witness:(i, fun tup -> sup := level_of h delta tup)
                ~view ~late_view ~delta:(i, delta) ~work
                ~on_derived:(fun t -> emit !sup t)
                pr.ex
            end
            else
              Plan.exec_rule ~view ~late_view ~delta:(i, delta) ~work
                ~on_derived:(fun t -> emit max_int t)
                pr.ex
          | Some _ | None -> ())
        pr.in_comp)
    prs

(* supporter levels: off the head's store slot, or off the delta's
   own slot, where deaths carry their dropped cells and applied
   births their new ones. A tuple without a cell reads [max_int]
   either way: {!Relation}'s sentinels are "unknown" *)
let store_level h _ tup = (Relation.slot h.rel tup).Relation.level

let delta_level _ delta tup = (Relation.slot delta tup).Relation.level

(* a present tuple's store cell, attached on first use; [absent] for
   a tuple the store does not hold *)
let attach h tup =
  let cell = Relation.slot h.rel tup in
  if cell == Relation.no_cell then begin
    let cell = Relation.make_cell tup in
    Relation.set_cell h.rel cell;
    cell
  end
  else cell

(* (Re)build a [Rules] component's derivation counts — and the
   well-founded support index — against [view], level-stratified:

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
     whose witness supporter has a level strictly below the head's;
     non-linear rules contribute nothing, so [low] may undercount but
     never overcounts.

   The store must be a fixpoint of the rules under [view], so every
   present tuple is derived, gets a cell and is leveled once the
   deltas dry up: in a linear component each tuple first leveled in
   round [r] has a witness at [r - 1], hence [low >= 1]. Attaches
   fresh stamps; the caller syncs them once store and counts agree. *)
let recount_comp (pc : prepared_comp) prs ~view ~work =
  List.iter (fun h -> Relation.counts_attach h.rel) pc.heads;
  List.iter
    (fun pr ->
      if not (is_recursive pr) then
        Plan.exec_rule ~view ~work
          ~on_derived:(fun tup ->
            let cell = attach pr.head tup in
            if cell != Relation.absent then begin
              cell.Relation.exits <- cell.Relation.exits + 1;
              cell.Relation.level <- 0
            end)
          pr.ex)
    prs;
  let rec_prs = List.filter is_recursive prs in
  if rec_prs <> [] then begin
    let leveled : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
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
    List.iter
      (fun h ->
        Relation.iter_slots
          (fun tup cell ->
            if cell.Relation.level = 0 then begin
              ignore (add_to leveled h.pred tup);
              ignore (add_to !round h.pred tup)
            end)
          h.rel)
      pc.heads;
    let r = ref 0 in
    while any_live !round do
      incr r;
      let cur = !round in
      let next = Hashtbl.create 4 in
      let late = overlay_view ~plus:no_overlay ~minus:cur leveled_view in
      fire_in_comp ~level_of:store_level ~view:leveled_view ~late_view:late ~round:cur ~work
        rec_prs (fun pr ->
          let h = pr.head in
          fun s t ->
            let cell = attach h t in
            if cell != Relation.absent then begin
              cell.Relation.recs <- cell.Relation.recs + 1;
              if cell.Relation.level < max_int then begin
                if s < cell.Relation.level then cell.Relation.low <- cell.Relation.low + 1
              end
              else begin
                (* first derivable this round: will get level [r];
                   staged so it joins the leveled set only at round
                   end *)
                if s < !r then cell.Relation.low <- cell.Relation.low + 1;
                ignore (add_to next h.pred t)
              end
            end);
      (* staged fresh levels are assigned only now: the round's views
         must not see mid-round additions *)
      List.iter
        (fun h ->
          iter_net next h.pred (fun tup ->
              (Relation.slot h.rel tup).Relation.level <- !r;
              ignore (add_to leveled h.pred tup)))
        pc.heads;
      round := next
    done
  end

(* the variables and constants of [args] under [env], written into
   [buf] — top-level, so filling a witness allocates nothing *)
let rec fill_args ~symbols buf env j = function
  | [] -> ()
  | t :: rest ->
    buf.(j) <-
      (match t with
      | Ast.Var v -> List.assoc v env
      | Ast.Const _ | Ast.Agg _ -> Option.get (Matcher.resolve_term ~symbols env t));
    fill_args ~symbols buf env (j + 1) rest

(* ---- counting maintenance (derivation counts + B/F search) ----

   The deletion-side replacement for DRed's overdelete/rederive:
   per-tuple derivation counts (split exit/recursive) live in the
   relation's own tuple slots ({!Relation.slot}) and are maintained
   by signed delta propagation — a tuple dies exactly when its count
   reaches zero, so nothing is over-deleted and rederivation shrinks
   to a backward check of the few decremented-but-surviving tuples
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

   A derivation costs one slot lookup in its head relation, which
   yields presence and cell at once, plus one for its witness. The
   round's signed deltas accumulate in the cell's own d-fields and
   the touched cells queue on their head's list, which [settle]
   walks without hashing. Only tuples absent from the store (newborn
   candidates and pending births) keep their cells in a side table,
   the head's [newborn].

   The well-founded support index rides in the same cells: [level]
   is the recount fixpoint round of a tuple's first well-founded
   derivation, or the least candidate level of its birth (never
   lowered — that would misclassify later derivation deaths; the
   healing pass may raise it, debiting the consumers that counted
   it) and [low] counts surviving linear-rule derivations whose
   witness supporter sits at a strictly lower level. In a linear
   component the healing pass ends every run with [low >= 1] for
   each present exits = 0 tuple, so the next run's backward pool
   starts from the decrements instead of the whole component. The
   backward search pops its suspects in ascending level order and
   condemns each failed probe by filing a debt against every
   consumer derivation the index counted through it; a suspect with [exits = 0] but [low] minus its debt
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
   against the head's level; a tuple killed earlier in the run
   carries its dropped cell, and so its level, in the death round
   that enumerates through it. Non-linear derivations never enter
   [low]: it may undercount (costing a probe), never overcount
   (which would be unsound). *)
let run env =
  let { ctx; pc; rules = prs; work; ring; phase_begin; phase_end } = env in
  let d = ctx.d and heads = pc.heads in
  let recursive = List.exists is_recursive prs in
  let linear = recursive && all_linear prs in
  (* the scratch a raising run may have left behind *)
  List.iter
    (fun h ->
      h.touched <- [];
      List.iter Relation.clear [ h.newborn; h.births; h.dec; h.born ])
    heads;
  (* counts: trust them only if stamped at the relations' current
     versions; any other mutation path (DRed, Eval, direct edits)
     bumped the version, and a raising run left its stamps unsynced,
     so rebuild against the pre-update state. Comp relations are
     untouched at this point and upstream deltas cancel out under the
     old view, so the rebuild is exact. *)
  if List.exists (fun h -> Relation.counts_synced h.rel = None) heads then
    recount_comp pc prs ~view:ctx.old_view ~work;
  List.iter (fun h -> Relation.counts_unsync h.rel) heads;
  (* [dec] accumulates, over the whole run, every tuple that lost a
     derivation (recursive comps only) — in a linear component only
     the losses of an exit derivation or of a [low] entry, the only
     ones that can leave a tuple unvouched. It feeds the backward
     phase's trigger and pool and the healing pass. *)
  let newborn h tup =
    let cell = Relation.slot h.newborn tup in
    if cell != Relation.absent then cell
    else begin
      let cell = Relation.make_cell tup in
      cell.Relation.mark <- fresh lor spare;
      ignore (Relation.add_cell h.newborn cell);
      cell
    end
  in
  (* every present tuple of a counted relation has a cell of its own
     (see {!recount_comp}), so only an absent one needs a newborn *)
  let bump h exit sign sup tup =
    let cell = Relation.slot h.rel tup in
    let cell = if cell == Relation.absent then newborn h tup else cell in
    if cell.Relation.mark land touched = 0 then begin
      cell.Relation.mark <- cell.Relation.mark lor touched;
      h.touched <- cell :: h.touched
    end;
    if exit then cell.Relation.dexits <- cell.Relation.dexits + sign
    else cell.Relation.drecs <- cell.Relation.drecs + sign;
    (* index attribution. The store is frozen while a round
       enumerates, so the encoding branches on whether the tuple
       already has a cell of its own: such a cell accumulates a
       signed [low] delta in [dlow], while a fresh candidate (a tuple
       without one) is a newborn — its [level] takes the least
       candidate level seen this round (0 for an exit derivation,
       supporter + 1 for a leveled linear one) and [dlow] nets the
       signed recursive derivations attaining it. The sign matters: a
       derivation that is born and dies within one batch (its delta
       literals enumerated in both directions, as when an edge is
       added while a negated fact that blocks it is added too) meets
       both signs at the same candidate level, and must leave no
       [low] entry behind. When all contributions at the least level
       cancel, the newborn keeps that level with [low = 0] —
       unvouched, never overcounted. *)
    let counted =
      if cell.Relation.mark land fresh = 0 then begin
        let counted = (not exit) && sup < cell.Relation.level in
        if counted then cell.Relation.dlow <- cell.Relation.dlow + sign;
        counted
      end
      else begin
        if exit then begin
          if sign > 0 && cell.Relation.level > 0 then begin
            cell.Relation.level <- 0;
            cell.Relation.dlow <- 0
          end
        end
        else if sup < max_int then begin
          let cand = sup + 1 in
          if cand < cell.Relation.level then begin
            cell.Relation.level <- cand;
            cell.Relation.dlow <- sign
          end
          else if cand = cell.Relation.level then
            cell.Relation.dlow <- cell.Relation.dlow + sign
        end;
        false
      end
    in
    if sign < 0 && recursive && (exit || counted || not linear) then
      ignore (Relation.add h.dec tup)
  in
  (* a present tuple's death: removed from the store and recorded, its
     cell (and so its level) going with it into [deaths] for the next
     cascade round *)
  let kill deaths h (cell : Relation.count_cell) =
    let arity = Relation.arity h.rel in
    ignore (Relation.remove h.rel cell.Relation.key);
    record_remove d h.pred ~arity cell.Relation.key;
    ignore (Relation.add_cell (delta_rel deaths h.pred ~arity) cell)
  in
  let discard h (cell : Relation.count_cell) =
    ignore (Relation.remove h.newborn cell.Relation.key)
  in
  (* merge a round's [low] delta into a cell; [low] stays within
     [0, recs] — the clamps only absorb attribution the index
     deliberately undercounts (e.g. a decrement whose birth predated
     the index), never inflate it *)
  let merge_low (cell : Relation.count_cell) dlow =
    let low = cell.Relation.low + dlow in
    let low = if low < 0 then 0 else low in
    cell.Relation.low <- (if low > cell.Relation.recs then cell.Relation.recs else low)
  in
  (* Apply a round's net signed deltas to the counts, one touched cell
     at a time in first-touch order. Deaths (a present tuple's total
     reaching zero) are applied to the store immediately and returned
     for the next cascade round; births (positive support for an
     absent tuple) are only queued — they are applied after all
     deletion-side work, so the backward search never sees
     half-inserted state. Decrements aimed at a tuple with no cell
     are support through something this batch already killed:
     discarded, like the increments such a tuple's own count would
     have carried. *)
  let settle () =
    let deaths : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    let settle_cell h (cell : Relation.count_cell) =
      let dex = cell.Relation.dexits and drec = cell.Relation.drecs in
      let dlow = cell.Relation.dlow and m = cell.Relation.mark in
      cell.Relation.dexits <- 0;
      cell.Relation.drecs <- 0;
      cell.Relation.dlow <- 0;
      cell.Relation.mark <- m land spare;
      if m land fresh <> 0 then begin
        (* a newborn candidate takes the round's net as its counts;
           with positive support it is a birth *)
        if dex + drec > 0 then begin
          cell.Relation.exits <- dex;
          cell.Relation.recs <- drec;
          let l = if dlow < 0 then 0 else dlow in
          cell.Relation.low <- (if l > drec then drec else l);
          ignore (Relation.add h.births cell.Relation.key)
        end
        else discard h cell
      end
      else if dex <> 0 || drec <> 0 || dlow <> 0 then begin
        cell.Relation.exits <- cell.Relation.exits + dex;
        cell.Relation.recs <- cell.Relation.recs + drec;
        merge_low cell dlow;
        let present = m land spare = 0 in
        if Relation.count_total cell > 0 then begin
          if not present then ignore (Relation.add h.births cell.Relation.key)
        end
        else if present then kill deaths h cell
        else discard h cell
      end
    in
    List.iter
      (fun h ->
        let cells = List.rev h.touched in
        h.touched <- [];
        List.iter (settle_cell h) cells)
      heads;
    deaths
  in
  (* one in-component cascade round: the delta (this round's deaths
     or births, already applied to the store) drives every rule at
     its in-component positions; [pre] is the pre-round state for
     the late positions. For a linear rule the delta position is
     its only in-component atom, so the witness is the delta tuple
     itself, its level on the cell the delta carries. Only cells'
     scratch and the [newborn] tables are written, so the
     non-deferred executor is safe. *)
  let enumerate_in_comp ~sign ~round ~pre =
    (* in-comp delta position ⇒ recursive rule: [exit] is false *)
    fire_in_comp ~level_of:delta_level ~view:ctx.new_view ~late_view:pre ~round ~work prs
      (fun pr -> bump pr.head false sign)
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
     [low] entry this run. Every other present exits = 0 tuple kept
     all its [low] entries and, by the invariant the healing pass
     restores at the end of each run, has [low >= 1]: it is index-vouched, so it stands or falls with the
     lower-level supporters its entries name, which the drain
     resolves first — an unfounded cycle cannot vouch for itself,
     since levels strictly fall along the entries. The hidden-peer
     rule below treats such a tuple exactly as a vouched pool
     member. A component with a non-linear recursive rule has
     derivations the index cannot name, so its pool stays every
     present exits = 0 tuple — a superset of any unfounded set,
     where a not-yet-suspected peer is itself suspect and hidden
     until resolved.

     Within the pool the well-founded support index replaces most
     probes with an O(1) check. Suspects resolve in ascending
     cell-level order. A probe failure condemns the suspect and
     debits every consumer derivation the index counted through
     it (the linear-rule matches where it is the strictly-lower-
     level witness) — the condemned tuple's level certificate is
     stale, so consumers must not rely on it. A suspect whose [low]
     minus its debt is positive is proven without evaluation: each
     surviving [low] entry names a supporter at a strictly lower
     level, every strictly-lower suspect was already resolved (debts
     filed) by the drain order, so that supporter is either outside
     the pool or proven, and induction on levels grounds the chain in
     exit support. The debt can overshoot when [low] undercounted —
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
  (* a component predicate's head, memoized on physical string
     equality: probes ask about one predicate many times in a row *)
  let memo_pred = ref "" and memo_head = ref None in
  let head_of pred =
    if pred != !memo_pred then begin
      memo_pred := pred;
      memo_head := List.find_opt (fun h -> String.equal h.pred pred) heads
    end;
    !memo_head
  in
  let rec_prs = List.filter is_recursive prs in
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
  let provable ~hide h tup =
    List.exists
      (fun (pr, body) ->
        pr.head == h
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
  (* linear recursive rules with their in-component atom: the only
     derivations the level index counts, hence the only ones a
     condemnation needs to debit *)
  let lin_prs =
    List.filter_map
      (fun pr -> match pr.in_comp with [ (i, wh) ] -> Some (pr, i, wh) | _ -> None)
      prs
  in
  (* every derivation whose witness is [h]'s tuple [tup], for
     [on_derived] to see the head of *)
  let consumers h tup on_derived =
    Relation.clear h.single;
    ignore (Relation.add h.single tup);
    List.iter
      (fun (pr, i, wh) ->
        if wh == h then
          Plan.exec_rule ~view:ctx.new_view ~delta:(i, h.single) ~work
            ~on_derived:(on_derived pr.head) pr.ex)
      lin_prs
  in
  let backward_prove () =
    (* Linear component: the seeds are the present [exits = 0]
       tuples of [dec] — those the index no longer vouches for
       ([low = 0]) need a probe, the rest are held for the O(1)
       tally. Every other present [exits = 0] tuple kept each [low]
       entry it had, and with [low >= 1] for all of them a chain of
       strictly lower witnesses grounds each in exit support —
       nothing can be unfounded unless a seed needs a probe. The scan
       is O(touched). *)
    let probe_seeds = ref [] and vouched = ref [] in
    let triggered =
      if linear then begin
        let seed h tup =
          let cell = Relation.slot h.rel tup in
          if cell != Relation.absent && cell.Relation.exits = 0 then
            if cell.Relation.low = 0 then probe_seeds := (h, cell) :: !probe_seeds
            else vouched := cell :: !vouched
        in
        List.iter (fun h -> Relation.iter (seed h) h.dec) heads;
        !probe_seeds <> []
      end
      else
        (* otherwise some present tuple must have lost a derivation
           and be left without exit support — only then can anything
           have become unfounded *)
        List.exists
          (fun h ->
            Relation.fold
              (fun found tup ->
                found
                ||
                let cell = Relation.slot h.rel tup in
                cell != Relation.absent && cell.Relation.exits = 0)
              false h.dec)
          heads
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
         cell, whose key is its tuple. *)
      let buckets : (int, (head * Relation.count_cell) list ref) Hashtbl.t =
        Hashtbl.create 64
      in
      let pending_levels = ref Levels.empty in
      let suspects = ref 0 and probe_admitted = ref 0 in
      let admit h (cell : Relation.count_cell) =
        incr probe_admitted;
        let lvl = cell.Relation.level in
        (match Hashtbl.find_opt buckets lvl with
        | Some l -> l := (h, cell) :: !l
        | None -> Hashtbl.replace buckets lvl (ref [ (h, cell) ]));
        pending_levels := Levels.add lvl !pending_levels
      in
      (* only present tuples hold store cells: queued births live in
         the heads' [newborn] tables and stay out of the pool *)
      if linear then List.iter (fun (h, cell) -> admit h cell) (List.rev !probe_seeds)
      else
        List.iter
          (fun h ->
            Relation.iter_slots
              (fun _ cell ->
                if cell.Relation.exits = 0 then begin
                  incr suspects;
                  if cell.Relation.low = 0 then admit h cell
                end)
              h.rel)
          heads;
      (* debts are filed straight into the consumer's cell ([debt]
         field): [low - debt] is the count of index entries still
         safe to rely on, read as field arithmetic — no side-ledger
         hashing on the O(1) path. [debited] remembers every
         touched cell so the debts are unwound before returning;
         cells persist across batches and must come back clean. *)
      let debited : Relation.count_cell list ref = ref [] in
      let condemned : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
      let condemn h (cell : Relation.count_cell) =
        (* first failure only: debit every consumer derivation the
           level index counted through this tuple (linear rules
           where it is the strictly-lower-level witness). A level
           of max_int never entered any [low], so there is nothing
           to debit. *)
        let lvl = cell.Relation.level in
        if lvl < max_int && add_to condemned h.pred cell.Relation.key then
          consumers h cell.Relation.key (fun ch hd ->
              let hc = Relation.slot ch.rel hd in
              if hc != Relation.absent && lvl < hc.Relation.level && hc.Relation.exits = 0
              then begin
                if hc.Relation.debt = 0 then debited := hc :: !debited;
                hc.Relation.debt <- hc.Relation.debt + 1;
                (* the debit that exhausts [low] turns an
                   index-vouched consumer into a probe case: it
                   joins its level bucket now (its level is
                   strictly above the frontier) *)
                if hc.Relation.debt = hc.Relation.low then admit ch hc
              end)
      in
      (* frontier visibility. The pool is never materialized as a
         hidden-tuple relation: a suspect's fate is read straight
         off its cell against the drain frontier, so the O(1) path
         writes nothing at all. With [frontier] at level L:
           - exits > 0: visible (never a suspect);
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
      let hidden h (cell : Relation.count_cell) =
        cell.Relation.exits = 0
        &&
        let lvl = cell.Relation.level in
        if lvl > !frontier then true
        else if lvl < !frontier then mem_in failed h.pred cell.Relation.key
        else
          not
            (cell.Relation.low - cell.Relation.debt > 0
            || mem_in probe_proven h.pred cell.Relation.key)
      in
      (* the live view with the hidden suspects taken out; a
         component tuple's slot answers presence and fate at once *)
      let hide =
        let base = ctx.new_view in
        {
          Matcher.mem =
            (fun p tup ->
              match head_of p with
              | None -> base.Matcher.mem p tup
              | Some h ->
                let cell = Relation.slot h.rel tup in
                cell != Relation.absent && not (hidden h cell));
          iter_matching =
            (fun p ~col ~value f ->
              match head_of p with
              | None -> base.Matcher.iter_matching p ~col ~value f
              | Some h ->
                Relation.iter_matching_cells h.rel ~col ~value (fun t cell ->
                    if not (hidden h cell) then f t));
          iter =
            (fun p f ->
              match head_of p with
              | None -> base.Matcher.iter p f
              | Some h ->
                Relation.iter_slots (fun t cell -> if not (hidden h cell) then f t) h.rel);
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
            (fun (h, (cell : Relation.count_cell)) ->
              incr full_probes;
              let tup = cell.Relation.key in
              if provable ~hide h tup then ignore (add_to probe_proven h.pred tup)
              else begin
                ignore (add_to failed h.pred tup);
                condemn h cell
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
      let head_named pred = Option.get (head_of pred) in
      let retry = ref true in
      while !retry do
        retry := false;
        let pending = ref [] in
        Hashtbl.iter
          (fun pred u ->
            let h = head_named pred in
            Relation.iter
              (fun tup ->
                pending := ((Relation.slot h.rel tup).Relation.level, pred, tup) :: !pending)
              u)
          failed;
        List.iter
          (fun (_, pred, tup) ->
            let u = Hashtbl.find failed pred in
            if Relation.mem u tup then begin
              incr full_probes;
              if provable ~hide (head_named pred) tup then begin
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
            let h = head_named pred in
            Relation.iter (fun tup -> kill deaths h (Relation.slot h.rel tup)) u
          end)
        failed;
      (* unwind the debts — cells outlive this call *)
      List.iter (fun (c : Relation.count_cell) -> c.Relation.debt <- 0) !debited;
      if !any then Some deaths else None
    end
  in
  let apply_births () =
    let applied : (string, Relation.t) Hashtbl.t = Hashtbl.create 4 in
    List.iter
      (fun h ->
        if Relation.cardinality h.births > 0 then begin
          let arity = Relation.arity h.rel in
          Relation.iter
            (fun tup ->
              (* re-check: support queued earlier may have been
                 cancelled by later decrements, the cell discarded *)
              let cell = Relation.slot h.newborn tup in
              if cell != Relation.absent && Relation.count_total cell > 0 then begin
                discard h cell;
                cell.Relation.mark <- 0;
                if Relation.add_cell h.rel cell then begin
                  record_add d h.pred ~arity tup;
                  ignore (Relation.add_cell (delta_rel applied h.pred ~arity) cell)
                end
              end)
            h.births;
          Relation.clear h.births
        end)
      heads;
    applied
  in
  let rec birth_rounds round =
    if any_live round then begin
      if linear then
        List.iter
          (fun h -> iter_net round h.pred (fun tup -> ignore (Relation.add h.born tup)))
          heads;
      let pre = overlay_view ~plus:no_overlay ~minus:round ctx.new_view in
      enumerate_in_comp ~sign:1 ~round ~pre;
      (* increments only: settle can queue further births but can
         produce no deaths *)
      ignore (settle ());
      birth_rounds (apply_births ())
    end
  in
  (* Healing (linear components, after the births). The backward
     pool is seeded from the decrements, which is sound only while the
     index vouches ([low >= 1]) for every present [exits = 0] tuple
     outside the pool: a tuple a probe proved, or a consumer whose
     last lower witness died, is left with [low = 0] and would
     otherwise go unsuspected forever. The pass re-levels such tuples
     so they are vouched for again.

     - Members: the candidates (touched this run, still present,
       [exits = 0], [low = 0]) and, closed under consumers, every
       tuple whose [low] entries all run through a member — its
       certificate rests on a tuple the index does not vouch for. The
       closure files its debits in [debt], as the backward phase's
       condemnation does; a member's cell has [debt = low]. A cell's
       [mark] holds its member number (1-based; 0 for none).
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
       at the final levels. Every member is present, so it has a
       well-founded derivation and finalizes through its witness,
       which ends strictly below it: [low >= 1].

     Returns the number of members re-leveled (finalized). *)
  let heal () =
    let order = ref [] and count = ref 0 in
    let queue = Queue.create () in
    let enlist h (cell : Relation.count_cell) =
      if cell.Relation.mark = 0 then begin
        let m =
          {
            h;
            cell;
            old_level = cell.Relation.level;
            key = max_int;
            fin = false;
            witnesses = [];
            consumers = [];
          }
        in
        incr count;
        cell.Relation.mark <- !count;
        order := m :: !order;
        Queue.add m queue
      end
    in
    let candidate h tup =
      let cell = Relation.slot h.rel tup in
      if cell != Relation.absent && cell.Relation.exits = 0 && cell.Relation.low = 0 then
        enlist h cell
    in
    List.iter (fun h -> Relation.iter (candidate h) h.dec) heads;
    List.iter (fun h -> Relation.iter (candidate h) h.born) heads;
    (* member closure over consumers, recording every consumer edge *)
    let debited : Relation.count_cell list ref = ref [] in
    while not (Queue.is_empty queue) do
      let m = Queue.pop queue in
      consumers m.h m.cell.Relation.key (fun ch hd ->
          let cc = Relation.slot ch.rel hd in
          if cc != Relation.absent then begin
            m.consumers <- cc :: m.consumers;
            if
              m.old_level < cc.Relation.level
              && cc.Relation.exits = 0
              && cc.Relation.low > cc.Relation.debt
            then begin
              if cc.Relation.debt = 0 then debited := cc :: !debited;
              cc.Relation.debt <- cc.Relation.debt + 1;
              if cc.Relation.debt = cc.Relation.low then enlist ch cc
            end
          end)
    done;
    let order = List.rev !order in
    let members = Array.of_list order in
    (* the member a cell belongs to, numbered from 1; 0 for none *)
    let member (cell : Relation.count_cell) =
      if cell.Relation.exits > 0 || cell.Relation.low > cell.Relation.debt then 0
      else cell.Relation.mark
    in
    (* certified witness level, [max_int] when none can be relied on *)
    let certified (cell : Relation.count_cell) =
      let w = member cell in
      if w > 0 && not members.(w - 1).fin then max_int else cell.Relation.level
    in
    (* every derivation of a member, with its witness: a goal-directed
       enumeration of the probe bodies, reading the witness off the
       rule's one in-component atom into a reused buffer *)
    let witness_prs =
      List.map
        (fun (pr, body) ->
          let a =
            List.find_map
              (function
                | Ast.Pos a when Hashtbl.mem pc.comp_preds a.Ast.pred -> Some a
                | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None)
              body
            |> Option.get
          in
          let wh = Option.get (head_of a.Ast.pred) in
          (pr, body, a, wh, Array.make (Relation.arity wh.rel) 0))
        probe_prs
    in
    List.iter
      (fun m ->
        List.iter
          (fun (pr, body, a, wh, buf) ->
            if pr.head == m.h then
              match head_env pr.rule m.cell.Relation.key with
              | None -> ()
              | Some env ->
                Matcher.eval_body ~symbols:ctx.symbols ~view:ctx.new_view ~env ~work
                  ~on_env:(fun env ->
                    fill_args ~symbols:ctx.symbols buf env 0 a.Ast.args;
                    let wc = Relation.slot wh.rel buf in
                    if wc != Relation.absent then m.witnesses <- wc :: m.witnesses)
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
              m.cell.Relation.level <- lvl;
              (* a tuple never leveled witnesses no [low] entry *)
              if lvl < max_int then
                List.iter
                  (fun cc ->
                    let c = member cc in
                    if c > 0 && not members.(c - 1).fin then push members.(c - 1) (lvl + 1))
                  m.consumers
            end)
          (List.rev !l);
        finalize ()
    in
    finalize ();
    List.iter
      (fun m ->
        let lvl = m.cell.Relation.level in
        if lvl > m.old_level then
          List.iter
            (fun (cc : Relation.count_cell) ->
              if
                m.old_level < cc.Relation.level
                && cc.Relation.level <= lvl
                && member cc = 0
                && cc.Relation.low > 0
              then cc.Relation.low <- cc.Relation.low - 1)
            m.consumers)
      order;
    List.iter
      (fun m ->
        let lvl = m.cell.Relation.level in
        m.cell.Relation.low <-
          List.fold_left
            (fun n (wc : Relation.count_cell) -> if wc.Relation.level < lvl then n + 1 else n)
            0 m.witnesses)
      order;
    List.iter (fun m -> m.cell.Relation.mark <- 0) order;
    List.iter (fun (c : Relation.count_cell) -> c.Relation.debt <- 0) !debited;
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
        let r = pr.rule and h = pr.head in
        let exit = not (is_recursive pr) in
        (* a recursive rule's in-comp atom is an ordinary Match
           step here (the delta is external), which is what the
           witness mechanism is for; flipped plans keep body
           positions, so the same witness serves them. The store
           is the round's state of the component, so the witness
           level is its store cell's *)
        let sup = ref max_int in
        let witness =
          match pr.in_comp with
          | [ (w, wh) ] -> Some (w, fun tup -> sup := (Relation.slot wh.rel tup).Relation.level)
          | [] | _ :: _ :: _ -> None
        in
        let exec ex delta sign =
          Plan.exec_rule ?witness ~view:ctx.new_view ~late_view:ctx.old_view ~delta ~work
            ~on_derived:(fun t -> bump h exit sign !sup t)
            ex
        in
        List.iteri
          (fun i lit ->
            List.iter
              (fun (tbl, sign) ->
                match lit with
                | Ast.Pos a
                  when (not (Hashtbl.mem pc.comp_preds a.Ast.pred)) && nonempty tbl a.Ast.pred
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
           what the cascade adds to [dec] matters only to the
           healing pass. *)
        cascade_deaths deaths);
      if Obs.Ring.enabled ring then begin
        Obs.Ring.emit ring ~kind:Obs.Event.cnt_o1_hit ~a:!o1_hits ~b:pc.comp;
        Obs.Ring.emit ring ~kind:Obs.Event.cnt_full_probe ~a:!full_probes ~b:pc.comp
      end
    end;
    phase_begin ();
    birth_rounds (apply_births ());
    phase_end Obs.Event.cnt_forward;
    if linear then begin
      phase_begin ();
      let healed = heal () in
      phase_end Obs.Event.cnt_backward;
      if Obs.Ring.enabled ring then
        Obs.Ring.emit ring ~kind:Obs.Event.cnt_heal ~a:healed ~b:pc.comp
    end;
    List.iter (fun h -> Relation.counts_sync h.rel) heads
  end

(* Build and stamp one component's counts against the live database,
   for {!Incremental.prime}: one full-join pass per rule. *)
let prime ctx pc ~work =
  match pc.body with
  | Extensional | Aggregate_rule _ -> ()
  | Rules prs ->
    recount_comp pc prs ~view:ctx.new_view ~work;
    List.iter (fun h -> Relation.counts_sync h.rel) pc.heads
