(** Bridge from Datalog maintenance to the scheduling model.

    The paper's computation DAG is the condensed predicate dependency
    graph: one task per mutually-recursive component, dataflow edges
    between components. Applying a base-fact update reveals the active
    graph: a component's task is dirtied exactly when a feeding
    component's output actually changed.

    [of_update] performs the incremental maintenance (via
    {!Incremental.apply}), then packages what the maintenance observed
    into a {!Workload.Trace.t}: initial tasks are the changed base
    components, an edge propagates change iff its source component's
    output changed, and each task's processing time is its measured
    maintenance work scaled by [work_unit]. The resulting trace can be
    fed to every scheduler in the suite, closing the loop from Datalog
    program to Tables II/III-style experiments. *)

type t = {
  trace : Workload.Trace.t;
  report : Incremental.report;
  labels : string array;  (** task node -> predicate names of its component *)
}

val of_update :
  ?work_unit:float ->
  ?engine:Plan.engine ->
  ?maint:Incremental.maint ->
  ?domains:int ->
  ?shards:int ->
  ?sanitize:bool ->
  ?on_warn:(string -> unit) ->
  ?obs:Obs.Trace.t ->
  Database.t ->
  Ast.program ->
  additions:Ast.atom list ->
  deletions:Ast.atom list ->
  t
(** [db] must hold a completed materialization (see {!Eval.run}); it is
    updated in place. [work_unit] converts tuples-examined into seconds
    of simulated processing time (default [1e-6]). [engine] and [maint]
    (default DRed) are passed through to {!Incremental.apply} —
    [~maint:Counting] maintains by derivation counts instead of
    delete-rederive. [domains] and [shards] (default 1 each) are passed
    through too: > 1 runs the maintenance itself on executor worker
    domains or splits each component's rounds into per-shard fan-out
    tasks; the resulting trace is built from that run's report the
    same way. [sanitize] and [on_warn] are passed through — the
    write-set sanitizer and the ownership-refusal warning sink of
    {!Incremental.apply}. [obs] records the maintenance run's timeline
    (see {!Incremental.apply}); the [labels] field names its task spans
    when exporting with {!Obs.Export.to_file}. *)

val node_of_pred : t -> string -> int option
(** The task node evaluating the given predicate. *)
