(** Bottom-up materialization: stratified semi-naive evaluation.

    Components of the predicate dependency graph are evaluated in
    stratum-respecting topological order; each recursive component runs
    a semi-naive fixpoint (rules re-fired only with a delta-restricted
    body literal). This mirrors the materialization whose task DAG the
    paper schedules: one task per component. *)

type comp_stats = {
  comp : int;  (** component id in the {!Stratify.t} condensation *)
  rounds : int;  (** fixpoint iterations (1 for non-recursive) *)
  derived : int;  (** new tuples added *)
  work : int;  (** tuples examined — the work proxy for {!To_trace} *)
}

val run :
  ?engine:Plan.engine ->
  ?lint:bool ->
  Database.t ->
  Ast.program ->
  Stratify.t * comp_stats list
(** Materialize every derived predicate into [db]. Facts in the program
    are inserted first, those of derived predicates into their
    extensional shadows ({!Ast.shadow_listed_facts}). Returns the
    dependency analysis of the rewritten program (reusable) and
    per-component statistics in evaluation order. [engine] (default
    {!Plan.Compiled}) selects compiled plans or the interpretive
    oracle; both produce identical databases. [lint] (default off)
    first checks range restriction with {!Lint} — useful for programs
    assembled directly as [Ast] values, which bypass the parser's gate.
    @raise Lint.Failed with named-variable diagnostics when [lint] and
    the program is not range-restricted.
    @raise Stratify.Unstratifiable on negative recursion. *)

val run_naive : Database.t -> Ast.program -> unit
(** Reference implementation: stratum-at-a-time naive iteration to
    fixpoint. Quadratically slower; used to property-test [run]. *)

val databases_agree : Database.t -> Database.t -> (unit, string) result
(** Same predicates with identical tuple sets. *)
