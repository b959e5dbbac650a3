type t = {
  predicates : string array;
  index_of : (string, int) Hashtbl.t;
  graph : Dag.Graph.t;
  negative : bool array;
  condensation : Dag.Scc.condensation;
  stratum_of_comp : int array;
  stratum_count : int;
  edb : bool array;
  comp_rules : Ast.rule list array;
}

exception Unstratifiable of string

let collect_predicates program =
  let index_of = Hashtbl.create 32 in
  let names = Prelude.Vec.create ~dummy:"" () in
  let see name =
    if not (Hashtbl.mem index_of name) then begin
      Hashtbl.add index_of name (Prelude.Vec.length names);
      Prelude.Vec.push names name
    end
  in
  List.iter
    (fun (r : Ast.rule) ->
      see r.head.Ast.pred;
      List.iter
        (function
          | Ast.Pos a | Ast.Neg a -> see a.Ast.pred
          | Ast.Cmp _ -> ())
        r.body)
    program;
  (Prelude.Vec.to_array names, index_of)

let analyze program =
  let predicates, index_of = collect_predicates program in
  let n = Array.length predicates in
  let b = Dag.Graph.Builder.create ~nodes:n () in
  let negative = Prelude.Vec.create ~dummy:false () in
  let edb = Array.make n true in
  let seen_edges = Hashtbl.create 64 in
  List.iter
    (fun (r : Ast.rule) ->
      let h = Hashtbl.find index_of r.head.Ast.pred in
      if r.body <> [] then edb.(h) <- false;
      (* aggregation is non-monotone: its dependencies stratify like
         negation, so recursion through an aggregate is rejected *)
      let aggregates = Ast.rule_is_aggregate r in
      List.iter
        (fun lit ->
          match lit with
          | Ast.Cmp _ -> ()
          | Ast.Pos a | Ast.Neg a ->
            let neg =
              aggregates
              || (match lit with Ast.Neg _ -> true | Ast.Pos _ | Ast.Cmp _ -> false)
            in
            let src = Hashtbl.find index_of a.Ast.pred in
            (* dedupe identical (src, dst, polarity) edges *)
            if not (Hashtbl.mem seen_edges (src, h, neg)) then begin
              Hashtbl.add seen_edges (src, h, neg) ();
              ignore (Dag.Graph.Builder.add_edge b src h);
              Prelude.Vec.push negative neg
            end)
        r.body)
    program;
  let graph = Dag.Graph.Builder.build b in
  let negative = Prelude.Vec.to_array negative in
  let condensation = Dag.Scc.condense graph in
  (* negation inside an SCC is unstratifiable *)
  Dag.Graph.iter_edges graph (fun ~src ~dst ~eid ->
      if
        negative.(eid)
        && condensation.Dag.Scc.component.(src) = condensation.Dag.Scc.component.(dst)
      then raise (Unstratifiable predicates.(dst)));
  (* strata: longest path in the condensation counting negative edges *)
  let order = Dag.Topo.sort_exn condensation.Dag.Scc.dag in
  let stratum_of_comp = Array.make condensation.Dag.Scc.count 0 in
  (* condensation edges lost the polarity; recover it per predicate edge *)
  Array.iter
    (fun comp ->
      Array.iter
        (fun p ->
          Dag.Graph.iter_succ graph p (fun ~dst ~eid ->
              let cd = condensation.Dag.Scc.component.(dst) in
              if cd <> comp then begin
                let need =
                  stratum_of_comp.(comp) + if negative.(eid) then 1 else 0
                in
                if need > stratum_of_comp.(cd) then stratum_of_comp.(cd) <- need
              end))
        condensation.Dag.Scc.members.(comp))
    order;
  let stratum_count = 1 + Array.fold_left max 0 stratum_of_comp in
  (* derivation rules grouped by head component in one pass, program
     order kept within each component *)
  let comp_rules = Array.make condensation.Dag.Scc.count [] in
  List.iter
    (fun (r : Ast.rule) ->
      if r.body <> [] then begin
        let c = condensation.Dag.Scc.component.(Hashtbl.find index_of r.head.Ast.pred) in
        comp_rules.(c) <- r :: comp_rules.(c)
      end)
    program;
  let comp_rules = Array.map List.rev comp_rules in
  {
    predicates;
    index_of;
    graph;
    negative;
    condensation;
    stratum_of_comp;
    stratum_count;
    edb;
    comp_rules;
  }

let stratum t name =
  match Hashtbl.find_opt t.index_of name with
  | None -> raise Not_found
  | Some i -> t.stratum_of_comp.(t.condensation.Dag.Scc.component.(i))

let predicates_by_stratum t =
  let out = Array.make t.stratum_count [] in
  Array.iteri
    (fun i name ->
      let s = t.stratum_of_comp.(t.condensation.Dag.Scc.component.(i)) in
      out.(s) <- name :: out.(s))
    t.predicates;
  Array.map List.rev out

let scc_order t =
  let order = Dag.Topo.sort_exn t.condensation.Dag.Scc.dag in
  (* stable sort by stratum, preserving topological order within *)
  let keyed = Array.map (fun c -> (t.stratum_of_comp.(c), c)) order in
  let a = Array.copy keyed in
  (* counting-style stable sort via List.stable_sort on stratum only *)
  let sorted =
    List.stable_sort (fun (s1, _) (s2, _) -> compare s1 s2) (Array.to_list a)
  in
  Array.of_list (List.map snd sorted)
