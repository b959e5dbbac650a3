type comp_stats = { comp : int; rounds : int; derived : int; work : int }

let insert_facts db program =
  List.iter
    (fun (r : Ast.rule) ->
      if r.Ast.body = [] then begin
        if not (Ast.atom_is_ground r.Ast.head) then
          invalid_arg "Eval: non-ground fact";
        ignore (Database.add_fact db r.Ast.head)
      end)
    program

(* One component's fixpoint: semi-naive once seeded by a full round. *)
let eval_comp ~engine db (anal : Stratify.t) comp =
  let symbols = Database.symbols db in
  let view = Matcher.view_of_db db in
  let card pred =
    match Database.find db pred with Some r -> Relation.cardinality r | None -> 0
  in
  match anal.Stratify.comp_rules.(comp) with
  | [] -> { comp; rounds = 0; derived = 0; work = 0 }
  | [ r ] when Ast.rule_is_aggregate r ->
    (* aggregates are functional over strictly-lower strata: one shot *)
    let work = ref 0 in
    let derived = ref 0 in
    let rel =
      Database.relation db r.Ast.head.Ast.pred ~arity:(List.length r.Ast.head.Ast.args)
    in
    List.iter
      (fun tup -> if Relation.add rel tup then incr derived)
      (Aggregate.evaluate ~engine ~symbols ~view ~card ~work r);
    { comp; rounds = 1; derived = !derived; work = !work }
  | rules ->
    List.iter
      (fun (r : Ast.rule) ->
        if Ast.rule_is_aggregate r then
          invalid_arg
            (Printf.sprintf "Eval: aggregate rule for %s in a recursive component"
               r.Ast.head.Ast.pred))
      rules;
    begin
    let comp_preds = Hashtbl.create 8 in
    Array.iter
      (fun p -> Hashtbl.replace comp_preds anal.Stratify.predicates.(p) ())
      anal.Stratify.condensation.Dag.Scc.members.(comp);
    let work = ref 0 in
    let derived = ref 0 in
    let fresh_delta () : (string, Relation.t) Hashtbl.t = Hashtbl.create 8 in
    let delta = ref (fresh_delta ()) in
    let stage_into delta (r : Ast.rule) rel tup =
      if Relation.add rel tup then begin
        incr derived;
        let d =
          match Hashtbl.find_opt delta r.Ast.head.Ast.pred with
          | Some d -> d
          | None ->
            let d = Relation.create ~arity:(Relation.arity rel) in
            Hashtbl.add delta r.Ast.head.Ast.pred d;
            d
        in
        ignore (Relation.add d tup)
      end
    in
    (* one executor per rule: every (rule, delta position) plan is
       compiled once and reused across all fixpoint rounds. Staging goes
       through {!Plan.exec_rule_deferred}: [stage_into] grows the head
       relation, which a recursive rule is itself probing mid-call. *)
    let execs =
      List.map
        (fun (r : Ast.rule) ->
          let rel =
            Database.relation db r.Ast.head.Ast.pred
              ~arity:(List.length r.Ast.head.Ast.args)
          in
          (r, rel, Plan.executor ~engine ~symbols ~card r))
        rules
    in
    (* round 0: full evaluation *)
    List.iter
      (fun (r, rel, ex) ->
        Plan.exec_rule_deferred ~view ~work
          ~keep:(fun tup -> not (Relation.mem rel tup))
          ~on_derived:(stage_into !delta r rel)
          ex)
      execs;
    let rounds = ref 1 in
    let recursive_positions =
      List.map
        (fun ((r : Ast.rule), rel, ex) ->
          let poss = ref [] in
          List.iteri
            (fun i lit ->
              match lit with
              | Ast.Pos a when Hashtbl.mem comp_preds a.Ast.pred -> poss := i :: !poss
              | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> ())
            r.Ast.body;
          (r, rel, ex, List.rev !poss))
        execs
    in
    while Hashtbl.length !delta > 0 do
      incr rounds;
      let next = fresh_delta () in
      List.iter
        (fun ((r : Ast.rule), rel, ex, positions) ->
          List.iter
            (fun i ->
              let pred =
                match List.nth r.Ast.body i with
                | Ast.Pos a -> a.Ast.pred
                | Ast.Neg _ | Ast.Cmp _ -> assert false
              in
              match Hashtbl.find_opt !delta pred with
              | None -> ()
              | Some d ->
                Plan.exec_rule_deferred ~view ~delta:(i, d) ~work
                  ~keep:(fun tup -> not (Relation.mem rel tup))
                  ~on_derived:(stage_into next r rel)
                  ex)
            positions)
        recursive_positions;
      delta := next
    done;
    { comp; rounds = !rounds; derived = !derived; work = !work }
  end

let run ?(engine = Plan.default_engine) ?(lint = false) db program =
  (* programs built as Ast values bypass the parser's range-restriction
     gate; [~lint] closes that hole with named-variable evidence *)
  if lint then Lint.enforce program;
  let program = Ast.shadow_listed_facts program in
  Aggregate.validate program;
  let anal = Stratify.analyze program in
  Matcher.register db program;
  insert_facts db program;
  let stats =
    Array.to_list
      (Array.map (eval_comp ~engine db anal) (Stratify.scc_order anal))
  in
  (anal, stats)

let run_naive db program =
  let program = Ast.shadow_listed_facts program in
  Aggregate.validate program;
  let anal = Stratify.analyze program in
  Matcher.register db program;
  insert_facts db program;
  let symbols = Database.symbols db in
  let view = Matcher.view_of_db db in
  let card pred =
    match Database.find db pred with Some r -> Relation.cardinality r | None -> 0
  in
  let work = ref 0 in
  let by_stratum = Stratify.predicates_by_stratum anal in
  Array.iteri
    (fun s _ ->
      let in_stratum (r : Ast.rule) =
        r.Ast.body <> [] && Stratify.stratum anal r.Ast.head.Ast.pred = s
      in
      let rules = List.filter in_stratum program in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (r : Ast.rule) ->
            let rel =
              Database.relation db r.Ast.head.Ast.pred
                ~arity:(List.length r.Ast.head.Ast.args)
            in
            if Ast.rule_is_aggregate r then
              (* lower strata are final: recomputing is stable *)
              List.iter
                (fun tup -> if Relation.add rel tup then changed := true)
                (Aggregate.evaluate ~engine:Plan.Interpreted ~symbols ~view ~card
                   ~work r)
            else begin
              (* buffer new heads: a recursive rule scans the relation
                 it derives into, which must not grow mid-walk *)
              let fresh = ref [] in
              Matcher.eval_rule ~symbols ~view ~work
                ~on_derived:(fun tup ->
                  if not (Relation.mem rel tup) then fresh := Array.copy tup :: !fresh)
                r;
              List.iter
                (fun tup -> if Relation.add rel tup then changed := true)
                (List.rev !fresh)
            end)
          rules
      done)
    by_stratum

(* Interned codes are database-local (aggregates mint fresh constants in
   whatever order they fire), so agreement is judged on the decoded
   constants, not on raw tuples. *)
let databases_agree a b =
  let decoded db name r =
    Relation.fold (fun acc tup -> Database.tuple_to_atom db name tup :: acc) [] r
    |> List.sort compare
  in
  let in_other name db_mine r other =
    match Database.find other name with
    | None when Relation.cardinality r = 0 -> Ok ()
    | None -> Error (Printf.sprintf "predicate %s missing from one database" name)
    | Some r' ->
      if Relation.cardinality r <> Relation.cardinality r' then
        Error
          (Printf.sprintf "predicate %s: %d vs %d tuples" name
             (Relation.cardinality r) (Relation.cardinality r'))
      else if decoded db_mine name r <> decoded other name r' then
        Error (Printf.sprintf "predicate %s: tuple sets differ" name)
      else Ok ()
  in
  let rec check = function
    | [] -> Ok ()
    | (name, r) :: rest -> (
      match in_other name a r b with Ok () -> check rest | Error e -> Error e)
  in
  match check (Database.predicates a) with
  | Error e -> Error e
  | Ok () ->
    let rec check2 = function
      | [] -> Ok ()
      | (name, r) :: rest -> (
        match in_other name b r a with Ok () -> check2 rest | Error e -> Error e)
    in
    check2 (Database.predicates b)
