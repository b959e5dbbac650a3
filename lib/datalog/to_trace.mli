(** Bridge from Datalog maintenance to the scheduling model.

    The paper's computation DAG is the condensed predicate dependency
    graph: one task per mutually-recursive component, dataflow edges
    between components. Applying a base-fact update reveals the active
    graph: a component's task is dirtied exactly when a feeding
    component's output actually changed.

    [of_update] performs the incremental maintenance (via
    {!Incremental.apply} on a prepared session), then packages what the maintenance observed
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
  ?domains:int ->
  ?obs:Obs.Trace.t ->
  Incremental.session ->
  additions:Ast.atom list ->
  deletions:Ast.atom list ->
  t
(** Apply one update through the session (see {!Incremental.apply});
    the session's database is updated in place. [work_unit] converts
    tuples-examined into seconds of simulated processing time (default
    [1e-6]). [domains] (default 1) > 1 runs the maintenance itself on
    executor worker domains; the strategy, sanitizer and
    warning sink are the session's. The resulting trace is built from
    the run's report the same way whatever the configuration. [obs]
    records the maintenance run's timeline (see {!Incremental.apply});
    the [labels] field names its task spans when exporting with
    {!Obs.Export.to_file}. *)

val node_of_pred : t -> string -> int option
(** The task node evaluating the given predicate. *)
