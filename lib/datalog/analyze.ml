(* Static program analysis. Effect sets are extracted from compiled
   {!Plan} instruction sequences — the artifact that executes — so the
   ownership verifier checks what plans actually probe; the AST is only
   a fallback for rules no plan can represent (aggregate heads) and for
   the interpretive engine. Everything here is pure: compilation runs
   against a scratch symbol table and a zero cardinality oracle, never
   touching the database the program will maintain. *)

type strategy = Dred | Counting

type recursion = Nonrecursive | Linear | Nonlinear

type rule_info = {
  rule_index : int;
  head : string;
  reads : string list;
  plan_derived : bool;
  in_comp_pos : int;
}

type comp_info = {
  comp : int;
  stratum : int;
  members : string list;
  extensional : bool;
  rule_count : int;
  exit_rules : int;
  recursion : recursion;
  has_negation : bool;
  has_aggregate : bool;
  reads : string list;
  external_reads : string list;
  writes : string list;
  deltas : string list;
  level_index : bool;
  verdict : strategy;
  reason : string;
}

type t = {
  anal : Stratify.t;
  engine : Plan.engine;
  rules : rule_info array;
  comps : comp_info array;
}

let strategy_name = function Dred -> "dred" | Counting -> "counting"

let recursion_name = function
  | Nonrecursive -> "nonrecursive"
  | Linear -> "linear"
  | Nonlinear -> "nonlinear"

let comp_of_anal (anal : Stratify.t) name =
  match Hashtbl.find_opt anal.Stratify.index_of name with
  | None -> None
  | Some i -> Some anal.Stratify.condensation.Dag.Scc.component.(i)

let comp_of_pred t name = comp_of_anal t.anal name

(* ---- ownership -------------------------------------------------- *)

let check_ownership (anal : Stratify.t) ~comp ~writes ~reads =
  let cond = anal.Stratify.condensation in
  if comp < 0 || comp >= cond.Dag.Scc.count then
    Error (Printf.sprintf "ownership: unknown component %d" comp)
  else begin
    (* components the task may read: [comp] and its condensation
       ancestors (dependencies, transitively) *)
    let allowed = Array.make cond.Dag.Scc.count false in
    let rec mark c =
      if not allowed.(c) then begin
        allowed.(c) <- true;
        Dag.Graph.iter_pred cond.Dag.Scc.dag c (fun ~src ~eid:_ -> mark src)
      end
    in
    mark comp;
    let name c =
      String.concat ","
        (List.map
           (fun i -> anal.Stratify.predicates.(i))
           (Array.to_list cond.Dag.Scc.members.(c)))
    in
    let err = ref None in
    let fail fmt =
      Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt
    in
    List.iter
      (fun w ->
        match comp_of_anal anal w with
        | None -> fail "ownership: write target %s is not a program predicate" w
        | Some c when c <> comp ->
          fail "ownership: task for component %d [%s] writes %s, owned by component %d [%s]"
            comp (name comp) w c (name c)
        | Some _ -> ())
      writes;
    List.iter
      (fun r ->
        match comp_of_anal anal r with
        | None -> fail "ownership: read %s is not a program predicate" r
        | Some c when not allowed.(c) ->
          fail "ownership: task for component %d [%s] reads %s (component %d [%s]), which is not upstream of it"
            comp (name comp) r c (name c)
        | Some _ -> ())
      reads;
    match !err with None -> Ok () | Some m -> Error m
  end

(* ---- per-rule effects ------------------------------------------- *)

let rule_effects ~engine (r : Ast.rule) =
  match engine with
  | Plan.Interpreted -> (Plan.body_reads r, false)
  | Plan.Compiled -> (
    (* scratch symbol table, zero cardinality oracle: the plan's join
       order is irrelevant here, only its Match/Reject steps are read *)
    try
      let plan = Plan.compile ~symbols:(Symbol.create ()) ~card:(fun _ -> 0) r in
      (Plan.reads plan, true)
    with Invalid_argument _ ->
      (* aggregate heads and other non-plannable shapes *)
      (Plan.body_reads r, false))

(* ---- analysis --------------------------------------------------- *)

let union_sorted ls = List.sort_uniq String.compare (List.concat ls)

let run ?(engine = Plan.default_engine) ~anal (program : Ast.program) =
  let program = Ast.shadow_listed_facts program in
  let cond = anal.Stratify.condensation in
  let ncomp = cond.Dag.Scc.count in
  let comp_of name = comp_of_anal anal name in
  (* per-rule effect sets (non-fact rules only; facts read nothing) *)
  let rule_infos = ref [] in
  List.iteri
    (fun i (r : Ast.rule) ->
      if r.Ast.body <> [] then begin
        let reads, plan_derived = rule_effects ~engine r in
        let head_comp = comp_of r.Ast.head.Ast.pred in
        let in_comp_pos =
          List.fold_left
            (fun n lit ->
              match lit with
              | Ast.Pos a when comp_of a.Ast.pred = head_comp -> n + 1
              | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> n)
            0 r.Ast.body
        in
        rule_infos :=
          { rule_index = i; head = r.Ast.head.Ast.pred; reads; plan_derived; in_comp_pos }
          :: !rule_infos
      end)
    program;
  let rule_infos = Array.of_list (List.rev !rule_infos) in
  (* roll up per component *)
  let comps =
    Array.init ncomp (fun c ->
        let members =
          List.sort String.compare
            (List.map
               (fun i -> anal.Stratify.predicates.(i))
               (Array.to_list cond.Dag.Scc.members.(c)))
        in
        let extensional =
          List.for_all
            (fun p ->
              match Hashtbl.find_opt anal.Stratify.index_of p with
              | Some i -> anal.Stratify.edb.(i)
              | None -> true)
            members
        in
        let comp_rules = anal.Stratify.comp_rules.(c) in
        let infos =
          Array.to_list rule_infos
          |> List.filter (fun ri -> comp_of ri.head = Some c)
        in
        let rule_count = List.length infos in
        let exit_rules = List.length (List.filter (fun ri -> ri.in_comp_pos = 0) infos) in
        let recursive_rules = List.filter (fun ri -> ri.in_comp_pos > 0) infos in
        let recursion =
          if recursive_rules = [] then Nonrecursive
          else if List.for_all (fun ri -> ri.in_comp_pos = 1) recursive_rules then Linear
          else Nonlinear
        in
        let has_negation =
          List.exists
            (fun (r : Ast.rule) ->
              List.exists
                (function Ast.Neg _ -> true | Ast.Pos _ | Ast.Cmp _ -> false)
                r.Ast.body)
            comp_rules
        in
        let has_aggregate = List.exists Ast.rule_is_aggregate comp_rules in
        let reads = union_sorted (List.map (fun (ri : rule_info) -> ri.reads) infos) in
        let external_reads =
          List.filter (fun p -> not (List.mem p members)) reads
        in
        let writes =
          List.sort_uniq String.compare (List.map (fun ri -> ri.head) infos)
        in
        let deltas =
          (* positive body predicates drive delta plans (read side);
             member heads have their delta pairs written *)
          let pos =
            List.concat_map
              (fun (r : Ast.rule) ->
                List.filter_map
                  (function
                    | Ast.Pos a -> Some a.Ast.pred
                    | Ast.Neg _ | Ast.Cmp _ -> None)
                  r.Ast.body)
              comp_rules
          in
          union_sorted [ pos; writes ]
        in
        (* the well-founded support index (per-tuple [level]/[low])
           attributes derivations through the single in-component atom
           of a linear rule — exactly the shapes below qualify *)
        let level_index =
          (not extensional) && rule_count > 0
          && engine = Plan.Compiled
          && (not has_aggregate) && (not has_negation)
          && recursion = Linear
        in
        let verdict, reason =
          if extensional || rule_count = 0 then
            (Counting, "extensional (facts only): nothing to rederive either way")
          else if engine = Plan.Interpreted then
            (Dred, "interpretive engine: counting maintenance requires compiled plans")
          else if has_aggregate then
            (Dred, "aggregates maintain by recompute-and-diff, which counting cannot amortize")
          else if has_negation then
            (Dred, "negation flips delta signs from lower strata; DRed's rederive handles it uniformly")
          else
            match recursion with
            | Nonrecursive ->
              (Counting, "nonrecursive: derivation counts make deletions exact, no overdeletion phase")
            | Linear when 2 * exit_rules >= rule_count ->
              ( Counting,
                Printf.sprintf
                  "linear recursion with strong exit support (%d/%d exit rules): the level index proves most suspects O(1)"
                  exit_rules rule_count )
            | Linear ->
              ( Dred,
                Printf.sprintf
                  "linear recursion but weak exit support (%d/%d exit rules): backward search would dominate despite the level index"
                  exit_rules rule_count )
            | Nonlinear ->
              (Dred, "nonlinear recursion: rederivation via counting suspects degenerates to DRed's cost")
        in
        let stratum = anal.Stratify.stratum_of_comp.(c) in
        {
          comp = c;
          stratum;
          members;
          extensional;
          rule_count;
          exit_rules;
          recursion;
          has_negation;
          has_aggregate;
          reads;
          external_reads;
          writes;
          deltas;
          level_index;
          verdict;
          reason;
        })
  in
  { anal; engine; rules = rule_infos; comps }

let program ?engine (p : Ast.program) =
  run ?engine ~anal:(Stratify.analyze (Ast.shadow_listed_facts p)) p

let verify t =
  Array.fold_left
    (fun acc ci ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if ci.extensional then Ok ()
        else check_ownership t.anal ~comp:ci.comp ~writes:ci.writes ~reads:ci.reads)
    (Ok ()) t.comps

(* ---- reports ---------------------------------------------------- *)

let pp_set ppf = function
  | [] -> Format.pp_print_string ppf "{}"
  | l -> Format.fprintf ppf "{%s}" (String.concat " " l)

let pp_report ppf t =
  let anal = t.anal in
  Format.fprintf ppf "predicates: %d  components: %d  strata: %d  engine: %s@."
    (Array.length anal.Stratify.predicates)
    anal.Stratify.condensation.Dag.Scc.count anal.Stratify.stratum_count
    (match t.engine with Plan.Compiled -> "compiled" | Plan.Interpreted -> "interpreted");
  Array.iter
    (fun c ->
      let ci = t.comps.(c) in
      if ci.extensional then
        Format.fprintf ppf "stratum %d  component %d  %a: extensional@." ci.stratum
          ci.comp pp_set ci.members
      else begin
        Format.fprintf ppf
          "stratum %d  component %d  %a: %s, %d rule%s (%d exit)%s%s%s@."
          ci.stratum ci.comp pp_set ci.members (recursion_name ci.recursion)
          ci.rule_count
          (if ci.rule_count = 1 then "" else "s")
          ci.exit_rules
          (if ci.has_negation then ", negation" else "")
          (if ci.has_aggregate then ", aggregates" else "")
          (if ci.level_index then ", level index" else "");
        Format.fprintf ppf "  reads %a  writes %a  deltas %a@." pp_set ci.reads
          pp_set ci.writes pp_set ci.deltas;
        Format.fprintf ppf "  advisor: %s — %s@." (strategy_name ci.verdict) ci.reason
      end)
    (Stratify.scc_order anal);
  Array.iter
    (fun ri ->
      Format.fprintf ppf "rule %d: %s <- %a%s@." ri.rule_index ri.head pp_set ri.reads
        (if ri.plan_derived then "" else " [ast]"))
    t.rules;
  match verify t with
  | Ok () ->
    Format.fprintf ppf "ownership: verified (every component writes itself, reads only upstream)@."
  | Error m -> Format.fprintf ppf "ownership: VIOLATION — %s@." m

let json_report t =
  let open Obs.Json in
  let strs l = Array (List.map (fun s -> String s) l) in
  let anal = t.anal in
  let rule ri =
    Object
      [ ("index", int ri.rule_index); ("head", String ri.head); ("plan", Bool ri.plan_derived);
        ("reads", strs ri.reads) ]
  in
  let comp c =
    let ci = t.comps.(c) in
    Object
      [ ("comp", int ci.comp); ("stratum", int ci.stratum); ("extensional", Bool ci.extensional);
        ("recursion", String (recursion_name ci.recursion)); ("rules", int ci.rule_count);
        ("exit_rules", int ci.exit_rules); ("negation", Bool ci.has_negation);
        ("aggregate", Bool ci.has_aggregate);
        ("level_index", Bool ci.level_index); ("advice", String (strategy_name ci.verdict));
        ("reason", String ci.reason); ("members", strs ci.members); ("reads", strs ci.reads);
        ("external_reads", strs ci.external_reads); ("writes", strs ci.writes);
        ("deltas", strs ci.deltas) ]
  in
  to_string
    (Object
       [ ("predicates", int (Array.length anal.Stratify.predicates));
         ("components", int anal.Stratify.condensation.Dag.Scc.count);
         ("strata", int anal.Stratify.stratum_count);
         ( "engine",
           String
             (match t.engine with Plan.Compiled -> "compiled" | Plan.Interpreted -> "interpreted")
         );
         ("rules", Array (Array.to_list (Array.map rule t.rules)));
         ("comps", Array (Array.to_list (Array.map comp (Stratify.scc_order anal))));
         ("ownership", String (match verify t with Ok () -> "verified" | Error m -> m)) ])
