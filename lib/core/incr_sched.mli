(** Incremental maintenance of Datalog programs as DAG scheduling —
    one-stop facade.

    Reproduction of Singh et al., "A Scheduling Approach to Incremental
    Maintenance of Datalog Programs", IPDPS 2020. The underlying
    libraries remain directly usable:

    - [Dag] — DAG substrate: levels, reachability, interval lists, SCC;
    - [Sched] — the schedulers: LevelBased, LBL(k), LogicBlox, signal
      propagation, Hybrid, plus the offline clairvoyant reference;
    - [Workload] — traces, generators, the Table I reconstructions;
    - [Simulator] — the discrete-event engine, Theorem 10 meta-scheduler,
      schedule validation;
    - [Datalog] — the Datalog engine (parser, stratified semi-naive
      evaluation, DRed incremental maintenance, DAG extraction).

    Quick start:
    {[
      let trace = Incr_sched.trace_of_string my_trace_text in
      let results = Incr_sched.compare ~procs:8 trace in
      List.iter (Format.printf "%a@." Incr_sched.pp_result) results
    ]} *)

type result = Simulator.Metrics.t

val schedule :
  ?procs:int ->
  ?op_cost:float ->
  ?validate:bool ->
  sched:string ->
  Workload.Trace.t ->
  result
(** Run one named scheduler (see {!Sched.Registry.names}) on a trace.
    With [validate] (default off; expensive on big traces) the schedule
    is checked against the Section II model and any violation raises
    [Failure]. @raise Invalid_argument on an unknown scheduler name. *)

val compare :
  ?procs:int ->
  ?op_cost:float ->
  ?scheds:string list ->
  Workload.Trace.t ->
  result list
(** Run several schedulers (default: LevelBased, LBL(10), LogicBlox,
    Hybrid) on the same trace. *)

val clairvoyant : ?procs:int -> ?op_cost:float -> Workload.Trace.t -> result
(** The offline lower-bound reference for a trace. *)

val trace_of_file : string -> Workload.Trace.t

val trace_of_string : ?name:string -> string -> Workload.Trace.t

(** {1 Datalog entry points} *)

type maintainer
(** The prepared maintenance session ({!Datalog.Incremental.session})
    that {!update} keeps for the last configuration it was asked for. *)

type datalog_session = {
  db : Datalog.Database.t;
  program : Datalog.Ast.program;
  maintainer : maintainer;
}

val materialize : ?lint:bool -> string -> datalog_session
(** Parse a program and compute its full materialization. [lint]
    (default off) re-checks range restriction with named-variable
    diagnostics before evaluating.
    @raise Datalog.Parser.Error on syntax errors
    @raise Datalog.Lint.Failed when [lint] and the check fails
    @raise Datalog.Stratify.Unstratifiable on negative recursion. *)

val lint : datalog_session -> Datalog.Lint.diagnostic list
(** All lint diagnostics (warnings included) for the session's
    program; see {!Datalog.Lint.pp}. *)

val update :
  ?work_unit:float ->
  ?maint:Datalog.Incremental.maint ->
  ?domains:int ->
  ?sanitize:bool ->
  ?trace:string ->
  ?obs:Obs.Trace.t ->
  datalog_session ->
  additions:string list ->
  deletions:string list ->
  Datalog.To_trace.t
(** Apply a base-fact update incrementally (atoms given as text, e.g.
    ["edge(\"a\",\"b\")"]) and return the revealed scheduling trace.
    The first update prepares a maintenance session
    ({!Datalog.Incremental.prepare}) for its [(maint, sanitize)];
    later updates asking for the same configuration reuse
    it, so they pay only for the batch and the components it reaches.
    Asking for another configuration prepares a new session in its
    place.
    [maint] (default DRed) selects the maintenance strategy — see
    {!Datalog.Incremental.maint}; ["auto"]-style per-component advice
    is [Datalog.Incremental.Auto]. [sanitize] (default off) arms the
    runtime write-set sanitizer (see {!Datalog.Relation.Sanitize}).
    [domains] (default 1) > 1 performs the maintenance in parallel on
    that many worker domains (see {!Datalog.Incremental.apply}).
    [trace] records the maintenance run's per-worker timeline — one
    ring per executor worker — and writes it to the given path as
    Chrome trace_event JSON (chrome://tracing or Perfetto; task spans
    named by component predicates) — summarize it with [dms trace] or
    {!Obs.Export.summary_of_json}. [obs] instead records into
    caller-owned rings (one per worker domain, see
    {!Datalog.Incremental.apply}) and leaves export to the
    caller — the update server threads one trace through many commits
    this way; when both are given [obs] wins and [trace] is ignored. *)

val query : datalog_session -> string -> Datalog.Ast.atom list
(** All facts of a predicate, sorted. *)

val pp_result : Format.formatter -> result -> unit

val pp_result_row : Format.formatter -> result -> unit
