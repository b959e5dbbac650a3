type t = {
  trace : Workload.Trace.t;
  report : Incremental.report;
  labels : string array;
}

let of_update ?(work_unit = 1e-6) ?domains ?obs session ~additions ~deletions =
  let report = Incremental.apply ?domains ?obs session ~additions ~deletions in
  let anal = report.Incremental.analysis in
  let cond = anal.Stratify.condensation in
  let graph = cond.Dag.Scc.dag in
  let n = Dag.Graph.node_count graph in
  let work = Array.make n 0.0 in
  let output_changed = Array.make n false in
  List.iter
    (fun (a : Incremental.comp_activity) ->
      work.(a.Incremental.comp) <- float_of_int a.Incremental.work *. work_unit;
      output_changed.(a.Incremental.comp) <- a.Incremental.output_changed)
    report.Incremental.activity;
  (* initial tasks: extensional components whose facts changed *)
  let initial =
    List.filter_map
      (fun (a : Incremental.comp_activity) ->
        let c = a.Incremental.comp in
        let edb =
          Array.for_all (fun p -> anal.Stratify.edb.(p)) cond.Dag.Scc.members.(c)
        in
        if edb && a.Incremental.output_changed then Some c else None)
      report.Incremental.activity
    |> List.sort compare
    |> Array.of_list
  in
  let edge_changed =
    Array.init (Dag.Graph.edge_count graph) (fun eid ->
        output_changed.(Dag.Graph.edge_src graph eid))
  in
  (* built directly rather than through [Workload.Trace.create]: the
     condensation is acyclic by construction, work counts are
     non-negative and [initial] is sorted, so its O(V+E) validation
     would only re-pay the program on every update *)
  let trace =
    {
      Workload.Trace.name = "datalog-update";
      graph;
      kind = Array.make n Workload.Trace.Task;
      shape = Array.map (fun wk -> Workload.Trace.Seq wk) work;
      initial;
      edge_changed;
    }
  in
  { trace; report; labels = Incremental.labels session }

let node_of_pred t name =
  let anal = t.report.Incremental.analysis in
  match Hashtbl.find_opt anal.Stratify.index_of name with
  | None -> None
  | Some p -> Some anal.Stratify.condensation.Dag.Scc.component.(p)
