(** Incremental maintenance of a materialized database under base-fact
    updates, with two engine-selectable algorithms ({!maint}).

    {b DRed} (delete-rederive), with stratified negation, processed
    stratum by stratum:

    + {e overdelete}: semi-naively propagate deletions (and additions
      under negated literals), matching the remaining body against the
      pre-update snapshot; remove everything possibly affected;
    + {e rederive}: re-add overdeleted tuples with surviving alternative
      derivations, to fixpoint;
    + {e insert}: semi-naively propagate additions (and deletions under
      negated literals) against the post-update state.

    {b Counting} (with Backward/Forward search for recursive
    components, after Hu/Motik/Horrocks' "Optimised Maintenance of
    Datalog Materialisations"): every derived tuple carries its number
    of distinct derivations, split into exit-rule and recursive-rule
    support ({!Relation.count_cell}). An update propagates {e signed
    count deltas} — each enumeration joins the changed tuples at body
    position i against already-updated state before i and not-yet-
    updated state after i ({!Plan.run}'s [late_view]) — and a tuple is
    deleted exactly when its count reaches zero. Nothing is
    over-deleted, so DRed's rederivation storm disappears; only
    decremented-but-surviving tuples with no exit support need the
    backward check for an alternative well-founded derivation — and
    the support index ({!Relation.count_cell.level} / [low]) settles
    most of those in O(1), and is healed after every run so the next
    backward search can start from the decrements — while forward
    propagation restarts only from genuinely dead tuples.
    Counts live in the relation's own tuple slots, stamped with the
    relation version ({!Relation.counts_synced}); they are rebuilt
    transparently when
    stale (first use, or after DRed/Eval touched the relation), or
    ahead of time with {!prime}.

    Maintenance follows the paper's split of scheduling cost: a
    program-sized precompute, paid once per program by {!prepare},
    and a runtime in the active tasks, paid per update by {!apply}.

    This is the computation whose task DAG the paper's schedulers order:
    each dependency-graph component is one task, activated exactly when
    the update actually changes one of its inputs. {!apply} records per-
    component activity so {!To_trace} can build that DAG. *)

type pred_change = {
  pred : string;
  added : int;  (** net tuples gained vs. the pre-update state *)
  removed : int;  (** net tuples lost *)
}

type comp_activity = {
  comp : int;  (** component id in the {!Stratify.t} condensation *)
  work : int;  (** tuples examined while maintaining this component *)
  output_changed : bool;  (** did any predicate of the component change *)
  input_changed : bool;
      (** did any predicate feeding this component change (i.e. would
          the paper's runtime have activated this task) *)
}

type deltas
(** The net tuples one update added to and removed from each predicate
    — the tuples behind {!report.changes}. Read-only: walk them with
    {!iter_added} / {!iter_removed}. *)

type report = {
  changes : pred_change list;  (** predicates with a net change, sorted *)
  activity : comp_activity list;  (** every component, evaluation order *)
  analysis : Stratify.t;
  deltas : deltas;
}

val iter_added : deltas -> string -> (Relation.tuple -> unit) -> unit
(** Every tuple the update added to the predicate (absent before, present
    after). The tuples are the delta's own arrays: copy before retaining
    ({!Relation.add} does). *)

val iter_removed : deltas -> string -> (Relation.tuple -> unit) -> unit
(** Every tuple the update removed from the predicate. *)

type maint = Dred | Counting | Auto
(** Maintenance algorithm. All restore exactly the same database; they
    differ in how deletions are paid for. [Counting] requires the
    compiled engine ({!Plan.Compiled}); aggregate components use the
    same recompute-and-diff under either. The count cells carry
    the {e well-founded support index} — each tuple's first-derivation
    fixpoint round ({!Relation.count_cell.level}) and its count of
    surviving strictly-lower-level supporters ([low]) — which lets the
    backward search prove most deletion-suspects in O(1) instead of
    re-evaluating rule bodies. DRed can still win on updates that wipe out
    most of a materialization — counting's per-derivation bookkeeping
    then costs more than deleting everything and rederiving the little
    that remains.

    Whatever the selector, maintenance runs with one {e resolved}
    strategy per condensation component. [Dred] and [Counting] resolve
    uniformly; [Auto] asks the static advisor ({!Analyze}) per
    component — Counting where its features say it is safe and
    profitable (nonrecursive, or linear recursion with strong exit
    support, no negation or aggregates), DRed otherwise. Under the
    interpretive engine the advisor resolves every component of [Auto]
    to DRed, silently. *)

type session
(** A program prepared for maintaining one database: everything that
    depends only on the program, paid once by {!prepare}, so that each
    {!apply} pays only for its update and the components it reaches.
    A session serves one {!apply} at a time. *)

val prepare :
  ?engine:Plan.engine ->
  ?maint:maint ->
  ?sanitize:bool ->
  ?on_warn:(string -> unit) ->
  Database.t ->
  Ast.program ->
  session
(** Prepare [program] for maintaining [db], which must hold a completed
    materialization of it (via {!Eval.run}) by the first {!apply}.
    Paid once, in time linear in the program: the listed facts of
    derived predicates move to their hidden extensional shadows
    ({!Ast.shadow_listed_facts}, as {!Eval.run} moved them), so
    maintenance keeps such a fact through any update as the support of
    one exit rule; then aggregate validation and {!Stratify.analyze},
    the resolved per-component strategies ([maint], default {!Dred};
    see {!maint}), {!Matcher.register}, one
    prepared component per condensation node with its rule executors
    (plans compile lazily, on first use), the condensation as the
    executor's task-DAG skeleton with its LevelBased levels, and the
    component labels. The static ownership verdict (see {!apply}) is
    computed once too, on the session's first parallel apply.

    [engine] (default {!Plan.Compiled}) selects compiled plans or the
    interpretive oracle; both restore the same database. [sanitize]
    (default false) arms the write-set sanitizer and [on_warn]
    (default: print to stderr) gets the ownership-refusal message, both
    for every apply of the session.
    @raise Invalid_argument for [~maint:Counting] with the interpretive
    engine
    @raise Stratify.Unstratifiable on negative recursion. *)

val serial_task_threshold : int
(** Default [serial_threshold] of {!apply}: activation wavefronts
    smaller than this run the serial walk — the executor's per-run
    dispatch overhead (waking its parked worker crew, the start
    barrier, a scheduler critical section per batch) exceeds the update
    cost on such small task counts. *)

val apply :
  ?domains:int ->
  ?serial_threshold:int ->
  ?sched:Sched.Intf.factory ->
  ?obs:Obs.Trace.t ->
  session ->
  additions:Ast.atom list ->
  deletions:Ast.atom list ->
  report
(** Update base facts and restore the materialization of the session's
    database. Atoms must be ground and extensional; an update that
    fails this check raises before touching anything and leaves the
    session usable. Per call, [apply] pays for fresh net deltas and
    views, the base updates, and the components the update reaches;
    components are walked in evaluation order, and one whose inputs
    did not change is skipped (zero work, no phase spans). Only the
    report's [activity] list, one entry per component, is
    program-sized.

    {b Re-planning.} Plans stay cached in the session across applies.
    {!Plan.compile} reads cardinalities only to break join-order ties,
    so each cached plan records the order of its body-atom
    cardinalities, and a plan is re-planned exactly when that order
    changed since it was last used — checked at the point where a
    fresh compilation would plan it: its first use in the apply on the
    serial walk, the prologue (for the components of the activation
    wavefront) when [domains > 1]. Plans, and hence
    the database, report and [work] counts, are the same as a freshly
    prepared session's.

    Every component runs one round driver. A DRed phase (delete,
    insert) fires its rules at the external trigger positions, then
    cascades through the in-component positions round by round; each
    round enumerates against state frozen for the round and merges
    what it derived afterwards. Rederive runs its fixpoint in between.

    [domains] (default 1) > 1 maintains the components as real tasks on
    the multicore executor ({!Parallel.Executor}) under [sched] (default
    the paper's LevelBased scheduler, over the session's precomputed
    levels). The task DAG is the condensation of the predicate
    dependency graph with every edge marked changed — which inputs
    actually changed is only discovered as tasks run — and the changed
    extensional components as initial tasks. Each task writes only its
    own component's relations and deltas and reads upstream state that
    the scheduler's precedence guarantees is quiescent, so the final
    database and report equal the serial walk's (up to interning order
    of aggregate-minted constants, and [work] counts, whose rederive
    round structure may follow hash order). When the conservative
    wavefront holds fewer than [serial_threshold] (default
    {!serial_task_threshold}) component tasks, the update runs the
    serial walk instead of paying the executor's dispatch overhead.

    In a component whose recursive rules are all linear, counting's
    backward suspect pool holds only the tuples that lost an exit
    derivation or a [low] entry (plus those the index could not vouch
    for after the previous run), so O(1) hits count those pool members
    the index still vouches for, not the whole component; a healing
    pass keeps that sound after each run (see {!Relation.count_cell}).

    With [domains > 1] every plan of the wavefront is
    compiled and every delta table created before the first task runs,
    and the driver relies on a statically verified ownership rule:
    every prepared component's write set (rule heads) and read set (the
    {!Plan.exec_reads} of its compiled plan stores, flipped-negation
    variants included) are checked by {!Analyze.check_ownership}
    against the condensation, once per session. A violation — a plan
    probing a relation that is neither same-component nor upstream —
    refuses parallel dispatch: every such update runs the serial walk,
    which needs no ownership, and the session's [on_warn]
    carries the verifier message. That refusal is the only message
    [on_warn] ever receives.

    With [sanitize] armed at {!prepare}, every relation and delta pair
    is tagged with its owning component, each component's maintenance
    runs inside a matching {!Relation.Sanitize.with_writer} scope
    (domain-local, so tags work unchanged across worker domains), and a
    mutation that crosses component ownership raises
    {!Relation.Sanitize.Violation} naming the relation and both tasks
    (tags are removed before returning).

    [obs] (default disabled) records a phase span per maintained
    component — delete / rederive / insert under DRed, count-propagate
    / backward / forward under Counting, tagged with the component id —
    on ring 0 for the serial walk, on the executing worker's ring
    otherwise, together with the executor's per-worker task / steal /
    park / scheduler-lock events. Recording never changes maintenance
    results.
    @raise Invalid_argument on a non-ground or intensional atom, for
    the interpretive engine with [domains > 1], or when another apply
    of the same session is running
    @raise Failure if a maintenance task raises. *)

val labels : session -> string array
(** Per condensation component, its predicates joined by commas. *)

val replans : session -> int
(** Plans the session re-compiled because their cardinality order
    changed (see {!apply}); first compilations are not counted. *)

val prime : Database.t -> Ast.program -> int
(** Build and version-stamp the derivation counts of every
    derived predicate against the database's current (materialized)
    contents — one full-join pass per rule, over a session prepared
    for [~maint:Counting] with the compiled engine; returns the tuples
    examined. Optional: the
    first counting apply rebuilds stale counts itself; priming just
    moves that cost out of the update. Counts are per program: priming
    with one program and maintaining with another is only safe if the
    database was touched in between (the version stamp then forces a
    rebuild). *)
