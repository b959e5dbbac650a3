open Maint

type pred_change = { pred : string; added : int; removed : int }

type comp_activity = {
  comp : int;
  work : int;
  output_changed : bool;
  input_changed : bool;
}

type deltas = Maint.deltas

type report = {
  changes : pred_change list;
  activity : comp_activity list;
  analysis : Stratify.t;
  deltas : deltas;
}

let iter_added (d : deltas) pred f = iter_net d.added pred f

let iter_removed (d : deltas) pred f = iter_net d.removed pred f

let check_edb (anal : Stratify.t) (a : Ast.atom) =
  if not (Ast.atom_is_ground a) then
    invalid_arg (Printf.sprintf "Incremental: update atom %s is not ground" a.Ast.pred);
  match Hashtbl.find_opt anal.Stratify.index_of a.Ast.pred with
  | Some i when not anal.Stratify.edb.(i) ->
    invalid_arg
      (Printf.sprintf "Incremental: %s is intensional; update base facts only"
         a.Ast.pred)
  | Some _ | None -> ()

(* Maintenance algorithm selector: classic delete/rederive (DRed), the
   counting engine — per-tuple derivation counts with Backward/Forward
   search for recursive components — or [Auto], which asks the static
   advisor ({!Analyze}) to pick per component. Whatever the selector,
   maintenance runs with one *resolved* strategy per condensation
   component; [Dred]/[Counting] resolve uniformly, [Auto] per the
   advisor (which picks DRed everywhere under the interpretive
   engine). *)
type maint = Dred | Counting | Auto

let default_warn msg = Printf.eprintf "warning: %s\n%!" msg

let resolve_strategies ~engine anal program maint =
  let n = anal.Stratify.condensation.Dag.Scc.count in
  match maint with
  | Dred -> Array.make n Analyze.Dred
  | Counting -> Array.make n Analyze.Counting
  | Auto ->
    let az = Analyze.run ~engine ~anal program in
    Array.init n (fun c -> az.Analyze.comps.(c).Analyze.verdict)

(* ---- the prepared session ----------------------------------------

   Everything that depends only on the program, paid once: the
   validated analysis and resolved strategies, [Matcher] registration,
   the prepared components with their plan executors, the condensation
   as a trace skeleton with its LevelBased levels, the component labels
   and — on the first parallel apply — the ownership verdict. Each
   [apply] advances [epoch], which is what makes a cached plan re-check
   its cardinality order at its first use in the update (see
   {!Plan.executor}). *)
type session = {
  db : Database.t;
  anal : Stratify.t;
  engine : Plan.engine;
  strategy : Analyze.strategy array;
  sanitize : bool;
  on_warn : string -> unit;
  symbols : Symbol.t;
  card : string -> int;
  epoch : int ref;
  prepared : prepared_comp array;
  order : int array;  (* {!Stratify.scc_order} *)
  sources : int array;  (* extensional components, ascending *)
  skeleton : Workload.Trace.t;  (* every edge changed, no initial task *)
  level_based : Sched.Intf.factory;  (* over the precomputed levels *)
  labels : string array;
  mutable ownership : (unit, string) result option;
  busy : bool Atomic.t;
}

let prepare ?(engine = Plan.default_engine) ?(maint = Dred) ?(sanitize = false)
    ?(on_warn = default_warn) db program =
  (match (maint, engine) with
  | Counting, Plan.Interpreted ->
    invalid_arg
      "Incremental.prepare: counting maintenance requires the compiled engine (the \
       interpretive oracle has no split-view mode)"
  (* Auto resolves to DRed everywhere under the interpretive engine *)
  | (Counting | Dred | Auto), _ -> ());
  let program = Ast.shadow_listed_facts program in
  Aggregate.validate program;
  let anal = Stratify.analyze program in
  let strategy = resolve_strategies ~engine anal program maint in
  Matcher.register db program;
  let symbols = Database.symbols db in
  let card pred =
    match Database.find db pred with Some r -> Relation.cardinality r | None -> 0
  in
  let epoch = ref 0 in
  let make_exec = Plan.executor ~epoch ~engine ~symbols ~card in
  let cond = anal.Stratify.condensation in
  let g = cond.Dag.Scc.dag in
  let n = Dag.Graph.node_count g in
  let members c = Array.to_list cond.Dag.Scc.members.(c) in
  let skeleton =
    Workload.Trace.create ~name:"dred-parallel" ~graph:g
      ~kind:(Array.make n Workload.Trace.Task)
      ~shape:(Array.make n (Workload.Trace.Seq 1.0))
      ~initial:[||]
      ~edge_changed:(Array.make (Dag.Graph.edge_count g) true)
  in
  {
    db;
    anal;
    engine;
    strategy;
    sanitize;
    on_warn;
    symbols;
    card;
    epoch;
    prepared = Array.init n (prepare_comp ~db ~anal ~make_exec);
    order = Stratify.scc_order anal;
    sources =
      Array.of_list
        (List.filter
           (fun c -> List.for_all (fun p -> anal.Stratify.edb.(p)) (members c))
           (List.init n Fun.id));
    skeleton;
    level_based =
      (let levels = Dag.Levels.compute g in
       { Sched.Level_based.factory with
         make = (fun g -> Sched.Level_based.make ~levels g) });
    labels =
      Array.init n (fun c ->
          String.concat "," (List.map (fun p -> anal.Stratify.predicates.(p)) (members c)));
    ownership = None;
    busy = Atomic.make false;
  }

let labels (s : session) = s.labels

let replans (s : session) =
  Array.fold_left
    (fun acc pc ->
      match pc.body with
      | Extensional | Aggregate_rule _ -> acc
      | Rules prs ->
        List.fold_left
          (fun acc pr ->
            List.fold_left
              (fun acc (_, _, fex) -> acc + Plan.replans fex)
              (acc + Plan.replans pr.ex) pr.flipped)
          acc prs)
    0 s.prepared

(* One update's context: the session's program-level parts plus fresh
   net deltas and the views over them. *)
let update_ctx (s : session) : ctx =
  let new_view = Matcher.view_of_db s.db in
  let d = { added = Hashtbl.create 16; removed = Hashtbl.create 16 } in
  (* The pre-update state as a delta overlay over the live database:
     old = (new \ added) ∪ removed. The net-delta invariant maintained
     by [record_add]/[record_remove] (a tuple sits in at most one table,
     cancellation on re-add) makes this identity hold at every point
     during processing, so no O(database) snapshot copy is needed. *)
  let old_view = overlay_view ~plus:d.removed ~minus:d.added new_view in
  { db = s.db; anal = s.anal; engine = s.engine; strategy = s.strategy;
    symbols = s.symbols; card = s.card; d; old_view; new_view }

let apply_base_updates (ctx : ctx) ~additions ~deletions =
  List.iter
    (fun (a : Ast.atom) ->
      let tup = Database.intern_atom ctx.db a in
      let rel = Database.relation ctx.db a.Ast.pred ~arity:(Array.length tup) in
      if Relation.remove rel tup then
        record_remove ctx.d a.Ast.pred ~arity:(Array.length tup) tup)
    deletions;
  List.iter
    (fun (a : Ast.atom) ->
      let tup = Database.intern_atom ctx.db a in
      let rel = Database.relation ctx.db a.Ast.pred ~arity:(Array.length tup) in
      if Relation.add rel tup then
        record_add ctx.d a.Ast.pred ~arity:(Array.length tup) tup)
    additions

(* Pre-create the delta relation pair of every analyzed predicate, so
   the delta hashtables never grow a new entry during component
   processing — structural mutation of a shared hashtable is the one
   thing [record_add]/[record_remove] would otherwise do outside their
   component's write set. ([Matcher.register] has already created every
   predicate's relation, fixing the arities.) *)
let prepare_deltas (ctx : ctx) =
  Array.iter
    (fun name ->
      match Database.find ctx.db name with
      | None -> ()
      | Some rel ->
        let arity = Relation.arity rel in
        ignore (delta_rel ctx.d.added name ~arity);
        ignore (delta_rel ctx.d.removed name ~arity))
    ctx.anal.Stratify.predicates

(* ---- per-component dispatch -------------------------------------

   One component task. An extensional component's delta is its base
   update; an aggregate component is recomputed and diffed; a [Rules]
   component runs the maintainer of its resolved strategy —
   {!Dred.run} or {!Counting.run}, one [Maint.env -> unit] signature.
   Phase spans (one per phase, tagged with the component id) go to
   [ring]; a single mutable start stamp suffices because phases never
   nest. *)
let maintain_component ?(ring = Obs.Ring.null) (ctx : ctx) (pc : prepared_comp) =
  let d = ctx.d and comp = pc.comp in
  let traced = Obs.Ring.enabled ring in
  let phase0 = ref 0 in
  let phase_begin () = if traced then phase0 := Obs.Ring.now_ns ring in
  let phase_end kind = if traced then Obs.Ring.emit ring ~kind ~a:comp ~b:!phase0 in
  let input_changed_of rules =
    List.exists
      (fun (r : Ast.rule) ->
        List.exists
          (function
            | Ast.Pos a | Ast.Neg a ->
              (not (Hashtbl.mem pc.comp_preds a.Ast.pred)) && changed d a.Ast.pred
            | Ast.Cmp _ -> false)
          r.Ast.body)
      rules
  in
  let work = ref 0 in
  let input_changed =
    match pc.body with
    | Extensional -> false
    | Aggregate_rule r ->
      (* aggregates are functional: recompute when dirty, diff exactly *)
      let input_changed = input_changed_of [ r ] in
      if input_changed then begin
        phase_begin ();
        let pred = r.Ast.head.Ast.pred and arity = head_arity r in
        let rel = head_rel ctx r in
        let fresh = Relation.create ~arity in
        List.iter
          (fun tup -> ignore (Relation.add fresh tup))
          (Aggregate.evaluate ~engine:ctx.engine ~symbols:ctx.symbols ~view:ctx.new_view
             ~card:ctx.card ~work r);
        let stale =
          Relation.fold
            (fun acc tup -> if Relation.mem fresh tup then acc else tup :: acc)
            [] rel
        in
        List.iter
          (fun tup ->
            ignore (Relation.remove rel tup);
            record_remove d pred ~arity tup)
          stale;
        Relation.iter
          (fun tup -> if Relation.add rel tup then record_add d pred ~arity tup)
          fresh;
        (* functional recompute-and-diff is closest to rederivation *)
        phase_end Obs.Event.dred_rederive
      end;
      input_changed
    | Rules rules ->
      let input_changed = input_changed_of (List.map (fun pr -> pr.rule) rules) in
      (* Nothing upstream changed ⇒ no delta can reach this component:
         its predicates are intensional (no base update touches them)
         and stratification keeps negation out of an SCC, so every phase
         of either strategy would be a no-op. Skipping also spares the
         phase spans and the rebuild of stale counts nobody needs yet. *)
      if input_changed then begin
        let env = { ctx; pc; rules; work; ring; phase_begin; phase_end } in
        match ctx.strategy.(comp) with
        | Analyze.Counting -> Counting.run env
        | Analyze.Dred -> Dred.run env
      end;
      input_changed
  in
  let output_changed =
    Array.exists (fun p -> changed d ctx.anal.Stratify.predicates.(p)) pc.members
  in
  { comp; work = !work; output_changed; input_changed }

(* Every mutation a component's maintenance performs — store writes,
   delta recording, cascade staging — happens on the thread running
   this call, so one writer scope around the whole body is exactly the
   ownership granularity the sanitizer checks. *)
let process_comp ?ring (s : session) (ctx : ctx) (pc : prepared_comp) =
  if s.sanitize then
    Relation.Sanitize.with_writer pc.tag (fun () -> maintain_component ?ring ctx pc)
  else maintain_component ?ring ctx pc

(* ---- report assembly -------------------------------------------- *)

let assemble_report (s : session) (ctx : ctx) slots =
  (* components the parallel run never reached are provably untouched
     (no upstream delta, see [apply]); report them exactly as
     the serial walk would: zero work, nothing changed *)
  let activity =
    s.order
    |> Array.to_list
    |> List.map (fun c ->
           match slots.(c) with
           | Some a -> a
           | None ->
             { comp = c; work = 0; output_changed = false; input_changed = false })
  in
  let changes =
    let tbl = Hashtbl.create 16 in
    Hashtbl.iter
      (fun pred r ->
        if Relation.cardinality r > 0 then
          Hashtbl.replace tbl pred (Relation.cardinality r, 0))
      ctx.d.added;
    Hashtbl.iter
      (fun pred r ->
        if Relation.cardinality r > 0 then begin
          let a = match Hashtbl.find_opt tbl pred with Some (a, _) -> a | None -> 0 in
          Hashtbl.replace tbl pred (a, Relation.cardinality r)
        end)
      ctx.d.removed;
    Hashtbl.fold (fun pred (added, removed) acc -> { pred; added; removed } :: acc) tbl []
    |> List.sort (fun (a : pred_change) b -> String.compare a.pred b.pred)
  in
  { changes; activity; analysis = ctx.anal; deltas = ctx.d }

(* Tag every relation of every component — the store and its delta
   pair — with the owning component's writer tag, so that any mutation
   from outside that component's [process_comp] scope raises
   {!Relation.Sanitize.Violation}. Tags go on *after* the base updates
   (which legitimately run untagged, on the caller's thread) and come
   off in [with_sanitize]'s finally, leaving the database as reusable
   as the sanitizer found it. *)
(* [f name rel] over the relations a predicate's owner writes: the
   store and its delta pair, the latter named "+pred" / "-pred" *)
let iter_owned (ctx : ctx) name f =
  Option.iter (f name) (Database.find ctx.db name);
  Option.iter (f ("+" ^ name)) (Hashtbl.find_opt ctx.d.added name);
  Option.iter (f ("-" ^ name)) (Hashtbl.find_opt ctx.d.removed name)

let sanitize_tag_all (ctx : ctx) prepared =
  Array.iter
    (fun pc ->
      Array.iter
        (fun p ->
          iter_owned ctx ctx.anal.Stratify.predicates.(p) (fun name rel ->
              Relation.Sanitize.set_owner rel ~name ~owner:pc.tag))
        pc.members)
    prepared

let sanitize_untag_all (ctx : ctx) =
  Array.iter
    (fun name -> iter_owned ctx name (fun _ rel -> Relation.Sanitize.clear_owner rel))
    ctx.anal.Stratify.predicates

let with_sanitize (s : session) (ctx : ctx) f =
  if not s.sanitize then f ()
  else begin
    sanitize_tag_all ctx s.prepared;
    Fun.protect ~finally:(fun () -> sanitize_untag_all ctx) f
  end

(* the serial component walk: [apply] below its parallel thresholds
   and after a refused ownership check; records phase spans on ring 0 *)
let run_serial_walk ~obs (s : session) ctx =
  let slots = Array.make (Array.length s.prepared) None in
  let ring = Obs.Trace.ring obs 0 in
  Array.iter (fun c -> slots.(c) <- Some (process_comp ~ring s ctx s.prepared.(c))) s.order;
  assemble_report s ctx slots

(* Build and stamp the derivation counts of every derived component
   against the database's current (materialized) contents — one full-
   join pass per rule. Callers run this once after {!Eval}
   materialization so the first [~maint:Counting] update doesn't pay
   the rebuild inside the measured batch; skipping it is still correct,
   merely slower once. *)
let prime db program =
  let s = prepare ~maint:Counting db program in
  let ctx = update_ctx s in
  let work = ref 0 in
  Array.iter (fun c -> Counting.prime ctx s.prepared.(c) ~work) s.order;
  !work

(* ---- parallel maintenance over the multicore executor -----------

   With [domains > 1], [apply] runs one executor task per condensation
   component, each the same [process_comp] body the serial walk runs.
   Safety rests on two facts:

   - {e ownership}: a component task writes only its own predicates'
     relations and delta relations (every head predicate of its rules
     is a member); everything it reads — body predicates, through the
     views — is upstream or same-component in the dependency DAG.

   - {e quiescence by precedence}: the executor starts a task only
     after every *activated* ancestor completed. The trace below marks
     every edge changed (which inputs actually changed is only
     discovered as upstream tasks run, so the activation wavefront is
     conservative), hence a task's released state implies each of its
     ancestor chains from the initial set is fully completed: had any
     chain a first-incomplete node, that node would be activated and
     incomplete, and the scheduler would still be holding this task.
     Ancestors outside the wavefront never run and never touch their
     relations. Either way every upstream read observes settled state,
     with happens-before established by the scheduler's lock
     ({!Sched.Protected}) on the release path.

   The serial prologue freezes all shared structure (the plans of
   every component in the wavefront compiled or re-planned, delta
   tables pre-created, relations registered at prepare time); the one
   remaining cross-component write — aggregate tasks interning fresh
   constants — is what {!Symbol}'s internal mutex is for.

   When the conservative activation wavefront holds fewer than
   [serial_threshold] tasks, dispatching them through the executor
   gains nothing, and such updates run the plain serial walk instead.
   Sized by a sweep on wide-48tc's independent closures (k touched
   groups, a wavefront of 2k tasks, one edge added then removed per
   group; median of 400 updates each way, 2 domains against the serial
   walk, on a 2-core host), four sweeps: 2 tasks ran 0.84-0.92x of
   serial, 4 tasks 0.99-1.23x, 6 tasks 0.97-1.16x, 8 tasks 1.11-1.17x,
   and 10-24 tasks 0.98-1.66x (one 16-task point below 1). Eight is
   the smallest wavefront that won in every sweep. *)

let serial_task_threshold = 8

(* Static ownership verification: the safety argument of the parallel
   driver — each component task writes only its own predicates, reads
   only upstream ones — checked against the effect sets of the plans
   that will actually run, instead of trusted by construction. Read
   sets come from {!Plan.exec_reads} over the precompiled plan stores
   (base, per-delta, flipped-negation variants), write sets from the
   rule heads; {!Analyze.check_ownership} decides against the
   condensation. Aggregate components have no plans; their single rule
   is checked from its body. *)
let verify_ownership (s : session) =
  let union_reads acc reads =
    List.fold_left (fun acc p -> if List.mem p acc then acc else p :: acc) acc reads
  in
  Array.fold_left
    (fun acc (pc : prepared_comp) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match pc.body with
        | Extensional -> Ok ()
        | Aggregate_rule r ->
          Analyze.check_ownership s.anal ~comp:pc.comp
            ~writes:[ r.Ast.head.Ast.pred ] ~reads:(Plan.body_reads r)
        | Rules prs ->
          let writes, reads =
            List.fold_left
              (fun (ws, rs) pr ->
                let rs = union_reads rs (Plan.exec_reads pr.ex) in
                let rs =
                  List.fold_left
                    (fun rs (_, _, fex) -> union_reads rs (Plan.exec_reads fex))
                    rs pr.flipped
                in
                let h = pr.rule.Ast.head.Ast.pred in
                ((if List.mem h ws then ws else h :: ws), rs))
              ([], []) prs
          in
          Analyze.check_ownership s.anal ~comp:pc.comp ~writes ~reads))
    (Ok ()) s.prepared

(* The verdict is computed once per session, on its first parallel
   apply, over plans compiled for every component. Re-planning only
   reorders a plan's steps, never changes the relations it reads, so
   the verdict holds for the session's lifetime. *)
let ownership (s : session) =
  match s.ownership with
  | Some verdict -> verdict
  | None ->
    Array.iter precompile_comp s.prepared;
    let verdict = verify_ownership s in
    s.ownership <- Some verdict;
    verdict

let run_parallel ~domains ~serial_threshold ~sched ~obs (s : session) (ctx : ctx) =
  (* initial tasks: extensional components whose base facts changed *)
  let initial =
    Array.of_list
      (List.filter
         (fun c ->
           Array.exists
             (fun p -> changed ctx.d s.anal.Stratify.predicates.(p))
             s.anal.Stratify.condensation.Dag.Scc.members.(c))
         (Array.to_list s.sources))
  in
  let trace = { s.skeleton with Workload.Trace.initial } in
  (* every component the conservative all-edges-changed wavefront can
     reach: the parallel path's re-plan point is here, before any task
     runs, for exactly these components *)
  let wavefront = Workload.Trace.active_set trace in
  Prelude.Bitset.iter (fun c -> precompile_comp s.prepared.(c)) wavefront;
  match ownership s with
  | Error msg ->
    (* a plan set reaching outside its declared ownership would make
       parallel dispatch unsound: refuse it and run serially, which
       needs no ownership at all *)
    s.on_warn
      ("apply: static ownership verification failed — " ^ msg
     ^ "; refusing parallel dispatch, running the serial walk");
    run_serial_walk ~obs s ctx
  | Ok () ->
    if Array.length initial = 0 then
      assemble_report s ctx (Array.make (Array.length s.prepared) None)
    else if Prelude.Bitset.cardinal wavefront < serial_threshold then
      run_serial_walk ~obs s ctx
    else begin
      let sched = Option.value sched ~default:s.level_based in
      let slots = Array.make (Array.length s.prepared) None in
      let run_task ~wid c =
        slots.(c) <- Some (process_comp ~ring:(Obs.Trace.ring obs wid) s ctx s.prepared.(c))
      in
      ignore (Parallel.Executor.run ~domains ~work_unit:0.0 ~run_task ~obs ~sched trace);
      assemble_report s ctx slots
    end

let apply ?(domains = 1) ?(serial_threshold = serial_task_threshold) ?sched
    ?(obs = Obs.Trace.disabled) (s : session) ~additions ~deletions =
  if domains > 1 && s.engine = Plan.Interpreted then
    invalid_arg
      "Incremental.apply: the interpretive oracle is not domain-safe; use the \
       compiled engine";
  List.iter (check_edb s.anal) additions;
  List.iter (check_edb s.anal) deletions;
  if not (Atomic.compare_and_set s.busy false true) then
    invalid_arg "Incremental.apply: the session is already running an apply";
  Fun.protect ~finally:(fun () -> Atomic.set s.busy false) @@ fun () ->
  incr s.epoch;
  let ctx = update_ctx s in
  apply_base_updates ctx ~additions ~deletions;
  prepare_deltas ctx;
  with_sanitize s ctx @@ fun () ->
  if domains > 1 then run_parallel ~domains ~serial_threshold ~sched ~obs s ctx
  else run_serial_walk ~obs s ctx
