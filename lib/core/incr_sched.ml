type result = Simulator.Metrics.t

let config ?(procs = 8) ?(op_cost = 1e-7) ?(validate = false) () =
  { Simulator.Engine.procs; op_cost; record_log = validate }

let schedule ?procs ?op_cost ?(validate = false) ~sched trace =
  let factory = Sched.Registry.find_exn sched in
  let config = config ?procs ?op_cost ~validate () in
  let run = Simulator.Engine.run ~config ~sched:factory trace in
  if validate then begin
    match Simulator.Validate.check_run trace run with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "invalid schedule from %s: %s" sched e)
  end;
  run.Simulator.Engine.metrics

let default_comparison = [ "levelbased"; "lbl:10"; "logicblox"; "hybrid" ]

let compare ?procs ?op_cost ?(scheds = default_comparison) trace =
  List.map (fun sched -> schedule ?procs ?op_cost ~sched trace) scheds

let clairvoyant ?procs ?op_cost trace =
  let config = config ?procs ?op_cost () in
  let sched = Simulator.Engine.clairvoyant_factory trace in
  (Simulator.Engine.run ~config ~sched trace).Simulator.Engine.metrics

let trace_of_file = Workload.Trace_io.of_file

let trace_of_string = Workload.Trace_io.of_string

type maintainer = {
  mutable current :
    ((Datalog.Incremental.maint * bool) * Datalog.Incremental.session) option;
}

type datalog_session = {
  db : Datalog.Database.t;
  program : Datalog.Ast.program;
  maintainer : maintainer;
}

let materialize ?(lint = false) src =
  let program = Datalog.Parser.parse src in
  let db = Datalog.Database.create () in
  let _analysis, _stats = Datalog.Eval.run ~lint db program in
  { db; program; maintainer = { current = None } }

let lint session = Datalog.Lint.check session.program

(* The prepared maintenance session for this configuration: reused
   while updates keep asking for the same one, replaced (and prepared
   on the spot) when they switch. *)
let maintenance session ~maint ~sanitize =
  let key = (maint, sanitize) in
  match session.maintainer.current with
  | Some (k, prepared) when k = key -> prepared
  | Some _ | None ->
    let prepared =
      Datalog.Incremental.prepare ~maint ~sanitize session.db session.program
    in
    session.maintainer.current <- Some (key, prepared);
    prepared

let update ?work_unit ?(maint = Datalog.Incremental.Dred) ?domains ?(sanitize = false)
    ?trace ?obs session ~additions ~deletions =
  let parse = List.map Datalog.Parser.parse_atom in
  let additions = parse additions and deletions = parse deletions in
  let prepared = maintenance session ~maint ~sanitize in
  match (obs, trace) with
  | Some obs, _ ->
    (* the caller owns the rings (and their export); a long-lived
       server threads one trace through many updates this way *)
    Datalog.To_trace.of_update ?work_unit ?domains ~obs prepared ~additions ~deletions
  | None, None -> Datalog.To_trace.of_update ?work_unit ?domains prepared ~additions ~deletions
  | None, Some path ->
    (* one ring per executor worker *)
    let nd = max 1 (Option.value domains ~default:1) in
    let obs = Obs.Trace.create ~domains:nd () in
    let tt =
      Datalog.To_trace.of_update ?work_unit ?domains ~obs prepared ~additions ~deletions
    in
    (* name task (and DRed) spans by their component's predicates *)
    let labels = tt.Datalog.To_trace.labels in
    let task_label c =
      if c >= 0 && c < Array.length labels then labels.(c) else string_of_int c
    in
    Obs.Export.to_file ~task_label path obs;
    tt

let query session pred =
  match Datalog.Database.find session.db pred with
  | None -> []
  | Some rel ->
    Datalog.Relation.to_list rel
    |> List.map (Datalog.Database.tuple_to_atom session.db pred)
    |> List.sort Stdlib.compare

let pp_result = Simulator.Metrics.pp

let pp_result_row = Simulator.Metrics.pp_row
