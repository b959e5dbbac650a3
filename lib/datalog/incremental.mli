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
    most of those in O(1) — while forward propagation restarts only
    from genuinely dead tuples.
    Counts live in a side table stamped with the relation version
    ({!Relation.counts_synced}); they are rebuilt transparently when
    stale (first use, or after DRed/Eval touched the relation), or
    ahead of time with {!prime}.

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
    same recompute-and-diff under either. The count side tables carry
    the {e well-founded support index} — each tuple's first-derivation
    fixpoint round ({!Relation.count_cell.level}) and its count of
    surviving strictly-lower-level supporters ([low]) — which lets the
    backward search prove most deletion-suspects in O(1) instead of
    re-evaluating rule bodies. Counting composes with [shards > 1]:
    the side tables shard with the tuple stores and propagation rounds
    fan out like DRed's. DRed can still win on updates that wipe out
    most of a materialization — counting's per-derivation bookkeeping
    then costs more than deleting everything and rederiving the little
    that remains.

    Whatever the selector, maintenance runs with one {e resolved}
    strategy per condensation component. [Dred] and [Counting] resolve
    uniformly; [Auto] asks the static advisor ({!Analyze}) per
    component — Counting where its features say it is safe and
    profitable (nonrecursive, or linear recursion with strong exit
    support, no negation or aggregates), DRed otherwise. The one
    combination counting cannot serve (the interpretive engine under
    [Auto]) downgrades the affected components to DRed with a message
    through [on_warn] instead of failing. *)

val apply :
  ?engine:Plan.engine ->
  ?maint:maint ->
  ?sanitize:bool ->
  ?on_warn:(string -> unit) ->
  ?obs:Obs.Trace.t ->
  Database.t ->
  Ast.program ->
  additions:Ast.atom list ->
  deletions:Ast.atom list ->
  report
(** Update base facts and restore the materialization. [db] must hold a
    completed materialization of [program] (via {!Eval.run}). Atoms must
    be ground and extensional. [engine] (default {!Plan.Compiled})
    selects compiled plans or the interpretive oracle; both restore the
    same database. [maint] (default {!Dred}) selects the maintenance
    algorithm. [sanitize] (default false) arms the write-set sanitizer:
    every relation and delta pair is tagged with its owning component,
    each component's maintenance runs inside a matching
    {!Relation.Sanitize.with_writer} scope, and a mutation that crosses
    component ownership raises {!Relation.Sanitize.Violation} naming
    the relation and both tasks (tags are removed before returning).
    [on_warn] (default: print to stderr) receives advisory downgrade
    messages — see {!maint}. [obs] (default disabled) records a phase
    span per maintained component on the trace's ring 0 — delete /
    rederive / insert under DRed, count-propagate / backward / forward
    under Counting, tagged with the component id.
    @raise Invalid_argument on a non-ground or intensional atom, or for
    [~maint:Counting] with the interpretive engine. *)

val prime : ?engine:Plan.engine -> Database.t -> Ast.program -> int
(** Build and version-stamp the derivation-count side tables of every
    derived predicate against the database's current (materialized)
    contents — one full-join pass per rule; returns the tuples
    examined. Optional: the first [apply ~maint:Counting] rebuilds
    stale counts itself; priming just moves that cost out of the
    update. Counts are per program: priming with one program and
    maintaining with another is only safe if the database was touched
    in between (the version stamp then forces a rebuild).
    @raise Invalid_argument with the interpretive engine. *)

val serial_task_threshold : int
(** Default [serial_threshold] of {!apply_parallel}: activation
    wavefronts smaller than this run the serial walk — the executor's
    per-run dispatch overhead (waking its parked worker crew, the start
    barrier, a scheduler critical section per batch) exceeds the update
    cost on such small task counts. *)

val apply_parallel :
  ?engine:Plan.engine ->
  ?maint:maint ->
  ?domains:int ->
  ?shards:int ->
  ?serial_threshold:int ->
  ?sched:Sched.Intf.factory ->
  ?sanitize:bool ->
  ?on_warn:(string -> unit) ->
  ?obs:Obs.Trace.t ->
  Database.t ->
  Ast.program ->
  additions:Ast.atom list ->
  deletions:Ast.atom list ->
  report
(** {!apply}, with the components maintained as real tasks on the
    multicore executor ({!Parallel.Executor}) under [sched] (default
    the paper's LevelBased scheduler), [domains] worker domains
    (default 4; [domains <= 1] with [shards <= 1] falls back to the
    serial walk). The task DAG is the condensation of the predicate
    dependency graph with every edge marked changed — which inputs
    actually changed is only discovered as tasks run — and the changed
    extensional components as initial tasks. Each task writes only its
    own component's relations and deltas and reads upstream state that
    the scheduler's precedence guarantees is quiescent, so the final
    database and report are the serial ones (up to interning order of
    aggregate-minted constants, and [work] counts, whose phase-B round
    structure may differ with hashing order). All plans are compiled
    and delta tables created serially before the first task runs.

    [shards] (default 1) additionally splits each component's DRed
    delete and insert rounds into per-shard enumerations over a
    {!Parallel.Shard_crew}: round inputs are partitioned by the
    {!Relation.shard_of_tuple} hash of the delta tuple's key column,
    each shard derives into a private buffer against frozen state, and
    the coordinator merges buffers in shard order 0..k-1 behind the
    crew barrier — so results, including iteration order, stay
    deterministic and equal to the serial walk's (again up to [work]
    counts: cross-shard duplicate derivations are dropped at the merge
    rather than at staging time).

    When the conservative wavefront holds fewer than [serial_threshold]
    (default {!serial_task_threshold}) active component tasks, the
    update runs the serial walk — still sharded when [shards > 1] —
    instead of paying the executor's dispatch overhead.

    [maint] (default {!Dred}) selects the per-component maintenance
    strategy, as in {!apply}; component-level parallelism (ownership +
    precedence) is algorithm-agnostic, and counting shards natively —
    with [shards > 1] each counting component's propagation rounds
    (the external delta, death cascades, birth rounds) partition by
    the same key-column hash, each shard accumulating signed count
    deltas in private buffers that the coordinator merges in shard
    order (counts add, newborn levels take the minimum) before
    settling serially, so counts, the level index, and the database
    equal the serial walk's. The backward search stays serial: its
    worklist is the suspect cone, already cut down by the O(1) level
    check.

    Before dispatching any task, the driver statically verifies the
    ownership rule it relies on: every prepared component's write set
    (rule heads) and read set (the {!Plan.exec_reads} of its compiled
    plan stores, flipped-negation variants included) are checked by
    {!Analyze.check_ownership} against the condensation. A violation —
    a plan probing a relation that is neither same-component nor
    upstream — refuses parallel dispatch: the update runs the serial
    walk, which needs no ownership, and [on_warn] carries the verifier
    message. [sanitize] additionally arms the runtime write-set checks
    of {!apply} (tags work unchanged across worker domains: the writer
    scope is domain-local).

    [obs] (default disabled) threads the executor's per-worker tracing
    (task / steal / park / scheduler-lock events) through the run and
    adds maintenance phase spans on the executing worker's ring;
    sharded rounds add [shard] spans, shard 0 on the coordinating
    worker's ring, shard [j >= 1] on ring [max 1 domains + j - 1].
    Recording never changes maintenance results.
    @raise Invalid_argument on a non-ground or intensional atom, if
    [shards < 1], or if [engine] is {!Plan.Interpreted} with
    [domains > 1] or [shards > 1] or [maint = Counting]
    @raise Failure if a maintenance task raises. *)
