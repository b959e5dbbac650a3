(** Rule compilation: the evaluation hot path.

    {!compile} turns an {!Ast.rule} into a fixed instruction sequence:

    - constants are interned once, at compile time — no [Symbol.intern]
      during matching;
    - variables become integer slots in a flat reusable [int array]
      environment (no assoc lists). Boundness is static: with a fixed
      literal order and depth-first enumeration, each slot is written by
      the [Bind] of its first occurrence before any read, so argument
      positions specialize to bind/check-slot/check-const ops and no
      unbinding is needed on backtrack;
    - body literals are reordered by a greedy static selectivity
      heuristic — negations and comparisons fire as soon as their
      variables are bound (they only filter), and among the remaining
      positive atoms the next generator is the one with the fewest
      unbound variables, ties broken by relation cardinality at plan
      time then by original position. The semi-naive delta literal, when
      present, is forced first so every subsequent literal probes with
      delta-bound values;
    - index probes go through {!Matcher.view.iter_matching} — no list is
      allocated per probe, and the probed column's check is elided
      (the index bucket already guarantees it).

    Reordering is semantics-preserving: positive conjunction is
    commutative, and filters are only moved to points where all their
    variables are bound (range restriction guarantees such a point
    exists). The head tuple handed to [on_derived] is a scratch buffer
    valid only for the duration of the callback — consumers must copy to
    retain, which {!Relation.add} already does.

    Plans carry their scratch state, so a single plan (and hence a
    single {!exec}) must not be executed reentrantly from inside its own
    callbacks; {!run} enforces this with a running flag and raises on
    violation. Callbacks must also not mutate relations the rule is
    probing — use {!exec_rule_deferred} when they do. *)

type t
(** A compiled plan for one rule, with the delta position (if any) fixed
    at compile time. *)

val compile : ?delta:int -> symbols:Symbol.t -> card:(string -> int) -> Ast.rule -> t
(** [compile ?delta ~symbols ~card rule] plans [rule]. [card] supplies
    per-predicate cardinalities for the join-order heuristic (cost only,
    never semantics). [delta] is the body position of the semi-naive
    literal; it must name a positive atom.
    @raise Invalid_argument on aggregate body terms, a non-positive
    delta literal, or a rule that is not range-restricted. *)

val run :
  ?delta:Relation.t ->
  ?late_view:Matcher.view ->
  ?witness:int * (Relation.tuple -> unit) ->
  view:Matcher.view ->
  work:int ref ->
  on_derived:(Relation.tuple -> unit) ->
  t ->
  unit
(** Enumerate all derivations of the plan's head against [view].
    [delta] is required iff the plan was compiled with a delta position;
    that literal then ranges over [delta] instead of the view.
    [late_view], meaningful only on a delta plan, switches body literals
    whose {e original} position follows the delta position (positive
    probes and negation checks alike) to read [late_view] while earlier
    literals keep reading [view] — the split the telescoped signed-delta
    identity Δ(R₁⋈…⋈Rₖ) = Σᵢ new₁…newᵢ₋₁·Δᵢ·oldᵢ₊₁…oldₖ needs, exact for
    batches touching several body predicates (including self-joins).
    Late flags are baked at compile time from the delta position, so the
    same memoized per-delta-position plans serve single-view and
    split-view execution. Defaults to [view].
    [witness = (i, f)] calls [f] immediately before each [on_derived]
    emission with the tuple the body literal at {e original} position
    [i] matched on that derivation — the supporter witness the counting
    engine's well-founded support index stamps levels from. Positions
    survive the selectivity reorder (each step remembers its syntactic
    position), and the delta literal participates like any other. The
    witness tuple is the store's own array: valid only inside [f], copy
    to retain. If no body literal has position [i], [f] sees whatever
    was last stashed (initially [[||]]) — callers pass positions of
    positive body atoms only.
    [work] counts tuples and filter checks examined, as the interpreter
    does. [on_derived] receives a scratch tuple — copy to retain;
    duplicates are possible, callers dedupe via {!Relation.add}.
    [on_derived] must not mutate any relation reachable from [view],
    [late_view] or [delta] (the probes walk live index buckets):
    mutating consumers go through {!exec_rule_deferred}.
    @raise Invalid_argument on reentrant execution of the same plan. *)

(** {2 Engine dispatch}

    {!Eval}, {!Incremental} and {!Aggregate} evaluate rules through an
    {!exec}, which either runs compiled plans (memoized per delta
    position, so fixpoint rounds reuse them) or delegates to the
    interpretive {!Matcher.eval_rule} — the reference oracle for
    differential testing. *)

type engine = Compiled | Interpreted

val default_engine : engine
(** {!Compiled}. *)

type exec

val executor :
  ?epoch:int ref -> engine:engine -> symbols:Symbol.t -> card:(string -> int) ->
  Ast.rule -> exec
(** Plans are compiled lazily, on first use of each delta position, and
    cached for the lifetime of the [exec].

    [epoch] (default: a private counter nobody advances) lets a caller
    that runs one executor across many updates keep its plans exactly
    as fresh compilation would make them. {!compile} reads [card] only
    to break join-order ties, so each cached plan records the pairwise
    order of its rule's positive body-atom cardinalities. The first use
    of a plan after the caller advanced [epoch] recomputes that order
    and re-plans exactly when it changed; later uses in the same epoch
    reuse the plan without looking. *)

val replans : exec -> int
(** Plans this executor re-compiled because their cardinality order
    changed (never counts a first compilation). *)

val exec_rule :
  ?delta:int * Relation.t ->
  ?late_view:Matcher.view ->
  ?witness:int * (Relation.tuple -> unit) ->
  view:Matcher.view ->
  work:int ref ->
  on_derived:(Relation.tuple -> unit) ->
  exec ->
  unit
(** Same contract as {!Matcher.eval_rule}; [delta = (i, d)] makes body
    literal [i] range over [d]. [late_view] and [witness] are the
    split-view and witness-extraction modes of {!run}; the interpretive
    oracle supports neither.
    Like {!run}, [on_derived] must not mutate relations the rule is
    reading.
    @raise Invalid_argument for [late_view] or [witness] on the
    interpretive engine. *)

val prepare : ?delta:int -> exec -> unit
(** Force compilation (or the epoch's re-plan check) of the plan a
    later {!exec_rule} call with the same [delta] position would
    perform lazily. Compilation interns the
    rule's constants into the shared symbol table; a parallel driver
    calls this for every plan it may need {e before} spawning worker
    domains, so task-time execution only reads the memoized store.
    No-op on the interpretive engine and on already-compiled plans. *)

(** {2 Static effect extraction}

    {!Analyze} derives per-rule read sets from the compiled instruction
    sequence — the artifact that executes — so ownership verification
    checks what the plan actually probes, not what the AST suggests it
    should. *)

val reads : t -> string list
(** Distinct predicates probed by the plan's [Match] (positive) and
    [Reject] (negation) steps, sorted. The semi-naive delta step is not
    included: its relation is caller-supplied, and the corresponding
    predicate appears as an ordinary read in the base plan. *)

val body_reads : Ast.rule -> string list
(** Distinct predicates of the rule body's positive and negated atoms,
    sorted — the AST-level superset of {!reads}, used where no plan can
    be compiled (interpretive engine, aggregate rules). *)

val exec_reads : exec -> string list
(** Read set of an executor: the union of {!reads} over its compiled
    plans when the base plan exists, else {!body_reads} of its rule.
    Never compiles anything and never raises. *)

val exec_rule_deferred :
  ?delta:int * Relation.t ->
  ?late_view:Matcher.view ->
  view:Matcher.view ->
  work:int ref ->
  keep:(Relation.tuple -> bool) ->
  on_derived:(Relation.tuple -> unit) ->
  exec ->
  unit
(** {!exec_rule} for consumers whose [on_derived] mutates relations the
    rule may be probing (the head relation of a recursive rule, the
    incremental net-delta overlay). Enumeration runs first, against
    frozen state; head tuples satisfying the read-only pre-filter [keep]
    are copied into a buffer and handed to [on_derived] only after the
    enumeration — and every live bucket walk — has finished. [keep] is
    called on the scratch buffer and must not mutate anything; it exists
    so duplicate derivations are discarded without allocation.
    [on_derived] receives tuples it may retain, in derivation order, and
    must still dedupe (the same new tuple can be buffered twice within
    one call). *)
