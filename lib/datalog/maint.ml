(* What component maintenance shares: the net deltas and their helpers,
   the overlay views, the update context, prepared components, and the
   per-component environment that {!Dred.run} and {!Counting.run} — the
   one maintainer signature, [env -> unit] — run against. Private to
   the library; {!Incremental} is the public surface. *)

(* Net per-predicate deltas relative to the pre-update snapshot. A
   tuple sits in at most one of the two tables; re-adding a removed
   tuple cancels instead of double-booking. *)
type deltas = {
  added : (string, Relation.t) Hashtbl.t;
  removed : (string, Relation.t) Hashtbl.t;
}

let iter_net tbl pred f =
  match Hashtbl.find_opt tbl pred with Some r -> Relation.iter f r | None -> ()

let delta_rel tbl pred ~arity =
  match Hashtbl.find_opt tbl pred with
  | Some r -> r
  | None ->
    let r = Relation.create_small ~arity in
    Hashtbl.add tbl pred r;
    r

let card tbl pred =
  match Hashtbl.find_opt tbl pred with Some r -> Relation.cardinality r | None -> 0

let nonempty tbl pred = card tbl pred > 0

(* did the update add or remove any [pred] tuple *)
let changed (d : deltas) pred = nonempty d.added pred || nonempty d.removed pred

let mem_in tbl pred tup =
  match Hashtbl.find_opt tbl pred with Some r -> Relation.mem r tup | None -> false

(* add [tup] to [pred]'s relation in a delta-shaped table, created on
   first use; [true] iff new *)
let add_to tbl pred tup =
  Relation.add (delta_rel tbl pred ~arity:(Array.length tup)) tup

let any_live tbl =
  Hashtbl.fold (fun _ r acc -> acc || Relation.cardinality r > 0) tbl false

let record_add (d : deltas) pred ~arity tup =
  let removed = delta_rel d.removed pred ~arity in
  if not (Relation.remove removed tup) then
    ignore (Relation.add (delta_rel d.added pred ~arity) tup)

let record_remove (d : deltas) pred ~arity tup =
  let added = delta_rel d.added pred ~arity in
  if not (Relation.remove added tup) then
    ignore (Relation.add (delta_rel d.removed pred ~arity) tup)

(* Replace the [i]th body literal (a negated atom) by its positive
   counterpart so that the semi-naive delta can range over it: a
   derivation enabled/disabled by a change to a negated input is found
   by unifying that literal against exactly the changed tuples. *)
let flip_negation (rule : Ast.rule) i =
  let body =
    List.mapi
      (fun j lit ->
        if j = i then
          match lit with
          | Ast.Neg a -> Ast.Pos a
          | Ast.Pos _ | Ast.Cmp _ -> invalid_arg "flip_negation: literal not negated"
        else lit)
      rule.Ast.body
  in
  { rule with Ast.body }

(* [base] with the [plus] tuples restored and the [minus] tuples
   hidden, per predicate: the update's old view (plus = net removed,
   minus = net added), or one counting cascade round's pre-round
   state (a death round restores its deaths, a birth round hides its
   births). Invariants: [plus] is disjoint from [base] (its tuples
   were just removed) and [minus] is contained in [base] (just added /
   still present), so membership is plus-hit, else minus-miss, else
   base. *)
let overlay_view ~plus ~minus (base : Matcher.view) =
  let find tbl p =
    match Hashtbl.find_opt tbl p with
    | Some r when Relation.cardinality r > 0 -> Some r
    | Some _ | None -> None
  in
  {
    Matcher.mem =
      (fun p tup ->
        (match find plus p with Some r -> Relation.mem r tup | None -> false)
        || ((match find minus p with
            | Some r -> not (Relation.mem r tup)
            | None -> true)
           && base.Matcher.mem p tup));
    iter_matching =
      (fun p ~col ~value f ->
        (match find minus p with
        | Some m ->
          base.Matcher.iter_matching p ~col ~value (fun t ->
              if not (Relation.mem m t) then f t)
        | None -> base.Matcher.iter_matching p ~col ~value f);
        match find plus p with
        | Some r -> Relation.iter_matching r ~col ~value f
        | None -> ());
    iter =
      (fun p f ->
        (match find minus p with
        | Some m -> base.Matcher.iter p (fun t -> if not (Relation.mem m t) then f t)
        | None -> base.Matcher.iter p f);
        iter_net plus p f);
  }

(* An overlay side that hides or restores nothing; never written. *)
let no_overlay : (string, Relation.t) Hashtbl.t = Hashtbl.create 1

(* ---- the update context -----------------------------------------

   Everything component maintenance shares during one update: the
   program-level parts a session prepared once (analysis, resolved
   strategies, the symbol table and live cardinalities) and the
   update's own net deltas and views. After the serial prologue
   ({!Incremental}'s base updates and [prepare_deltas], plus
   [precompile_comp] when running in parallel) the context's
   *structure* is frozen: the delta and relation hashtables gain no
   further entries, the views and plan stores are read-only. From then
   on maintaining component [c] writes only the relations and delta
   relations of its own predicates — every body predicate is upstream
   or same-component by construction of the dependency graph — which
   is the ownership rule that makes running components in parallel
   safe (see [Incremental.apply]). *)
type ctx = {
  db : Database.t;
  anal : Stratify.t;
  engine : Plan.engine;
  strategy : Analyze.strategy array;  (* resolved per component *)
  symbols : Symbol.t;
  card : string -> int;
  d : deltas;
  old_view : Matcher.view;
  new_view : Matcher.view;
}

(* ---- per-component preparation ----------------------------------

   Everything a component's maintenance needs, resolved once per
   session: its rules with one shared executor each (so every (rule,
   delta position) plan is compiled once and re-planned only when its
   cardinality order changes, see {!Plan.executor}), plus the
   flipped-positive variant of each negated literal — shared by phases
   A and C. *)

(* One predicate of a [Rules] component, resolved once per session:
   its store relation, and the counting engine's per-predicate
   scratch — a table of the cells of tuples not (yet) in the store,
   the pending births, the tuples that lost a derivation, the births
   applied, a one-tuple delta and the cells a round touched. Every
   counting run starts by emptying them, and reuses rather than
   recreates them. *)
type head = {
  pred : string;
  rel : Relation.t;
  newborn : Relation.t;
  births : Relation.t;
  dec : Relation.t;
  born : Relation.t;
  single : Relation.t;
  mutable touched : Relation.count_cell list;
}

type prepared_rule = {
  rule : Ast.rule;
  ex : Plan.exec;
  flipped : (int * Ast.rule * Plan.exec) list;  (* keyed by negated body position *)
  head : head;
  in_comp : (int * head) list;
      (* the positive body atoms of the rule's own component, in body
         order: position and predicate *)
}

type comp_body =
  | Extensional
  | Aggregate_rule of Ast.rule
  | Rules of prepared_rule list

type prepared_comp = {
  comp : int;
  members : int array;
  comp_preds : (string, unit) Hashtbl.t;
  heads : head list;  (* one per member of a [Rules] component, else none *)
  tag : string;  (* sanitizer owner/writer tag: names the component *)
  body : comp_body;
}

let make_head db pred =
  let rel = Option.get (Database.find db pred) in
  let scratch () = Relation.create ~arity:(Relation.arity rel) in
  {
    pred;
    rel;
    newborn = scratch ();
    births = scratch ();
    dec = scratch ();
    born = scratch ();
    single = scratch ();
    touched = [];
  }

(* [db] has every predicate of the program registered
   ({!Matcher.register}) *)
let prepare_comp ~db ~anal ~make_exec comp =
  let members = anal.Stratify.condensation.Dag.Scc.members.(comp) in
  let comp_preds = Hashtbl.create 4 in
  Array.iter
    (fun p -> Hashtbl.replace comp_preds anal.Stratify.predicates.(p) ())
    members;
  let tag =
    Printf.sprintf "component %d [%s]" comp
      (String.concat " "
         (List.map
            (fun p -> anal.Stratify.predicates.(p))
            (Array.to_list members)))
  in
  let heads, body =
    match anal.Stratify.comp_rules.(comp) with
    | [] -> ([], Extensional)
    | [ r ] when Ast.rule_is_aggregate r -> ([], Aggregate_rule r)
    | rules ->
      let heads =
        Array.to_list members |> List.map (fun p -> make_head db anal.Stratify.predicates.(p))
      in
      let head_of pred = List.find (fun h -> String.equal h.pred pred) heads in
      ( heads,
        Rules
          (List.map
             (fun (r : Ast.rule) ->
               let flipped =
                 List.mapi (fun i lit -> (i, lit)) r.Ast.body
                 |> List.filter_map (fun (i, lit) ->
                        match lit with
                        | Ast.Neg _ ->
                          let fr = flip_negation r i in
                          Some (i, fr, make_exec fr)
                        | Ast.Pos _ | Ast.Cmp _ -> None)
               in
               let in_comp =
                 List.mapi (fun i lit -> (i, lit)) r.Ast.body
                 |> List.filter_map (fun (i, lit) ->
                        match lit with
                        | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred ->
                          Some (i, head_of a.Ast.pred)
                        | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None)
               in
               let head = head_of r.Ast.head.Ast.pred in
               { rule = r; ex = make_exec r; flipped; head; in_comp })
             rules) )
  in
  { comp; members; comp_preds; heads; tag; body }

(* Compile (or re-plan, see {!Plan.executor}) every plan a component's
   phases could reach: the base plan (phase B), a delta plan per
   positive body position (phases A/C and the in-component cascades),
   and a delta plan per flipped negation. Compilation interns constants into the shared symbol table and
   consults relation cardinalities, so the parallel driver runs this
   serially, before any worker domain runs a task. *)
let precompile_comp pc =
  match pc.body with
  | Extensional | Aggregate_rule _ -> ()
  | Rules prs ->
    List.iter
      (fun pr ->
        Plan.prepare pr.ex;
        List.iteri
          (fun i lit ->
            match lit with
            | Ast.Pos _ -> Plan.prepare ~delta:i pr.ex
            | Ast.Neg _ | Ast.Cmp _ -> ())
          pr.rule.Ast.body;
        List.iter (fun (i, _, fex) -> Plan.prepare ~delta:i fex) pr.flipped)
      prs

let flipped_for pr i =
  let rec go = function
    | [] -> invalid_arg "Incremental: missing flipped plan"
    | (j, fr, fex) :: rest -> if j = i then (fr, fex) else go rest
  in
  go pr.flipped

let head_arity (r : Ast.rule) = List.length r.Ast.head.Ast.args

let head_rel ctx (r : Ast.rule) =
  Database.relation ctx.db r.Ast.head.Ast.pred ~arity:(head_arity r)

(* ---- the maintainer environment ---------------------------------- *)

(* One [Rules] component's maintenance run: [rules] is its prepared
   rules, [work] accumulates the tuples examined, and
   [phase_begin]/[phase_end] record one span per phase, tagged with the
   component id, on [ring] (a single mutable start stamp suffices
   because phases never nest). *)
type env = {
  ctx : ctx;
  pc : prepared_comp;
  rules : prepared_rule list;
  work : int ref;
  ring : Obs.Ring.t;
  phase_begin : unit -> unit;
  phase_end : Obs.Event.kind -> unit;
}
