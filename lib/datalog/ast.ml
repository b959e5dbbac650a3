type const = Sym of string | Int of int

type agg = Count | Sum | Min | Max

type term = Var of string | Const of const | Agg of agg * string

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type atom = { pred : string; args : term list }

type literal = Pos of atom | Neg of atom | Cmp of cmp * term * term

type rule = { head : atom; body : literal list }

type program = rule list

let compare_const a b =
  match (a, b) with
  | Int x, Int y -> compare x y
  | Int _, Sym _ -> -1
  | Sym _, Int _ -> 1
  | Sym x, Sym y -> String.compare x y

let term_is_ground = function Var _ | Agg _ -> false | Const _ -> true

let atom_is_ground a = List.for_all term_is_ground a.args

let rule_is_fact r = r.body = [] && atom_is_ground r.head

let term_var = function Var v | Agg (_, v) -> Some v | Const _ -> None

let vars_of_atom a =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun t ->
      match term_var t with
      | Some v when not (Hashtbl.mem seen v) ->
        Hashtbl.add seen v ();
        Some v
      | Some _ | None -> None)
    a.args

let rule_is_aggregate r =
  List.exists (function Agg _ -> true | Var _ | Const _ -> false) r.head.args

let vars_of_term acc = function Var v -> v :: acc | Const _ | Agg _ -> acc

let range_restricted r =
  let positive = Hashtbl.create 16 in
  List.iter
    (function
      | Pos a -> List.iter (fun v -> Hashtbl.replace positive v ()) (vars_of_atom a)
      | Neg _ | Cmp _ -> ())
    r.body;
  let bound v = Hashtbl.mem positive v in
  let no_body_aggregates =
    List.for_all
      (function
        | Pos a | Neg a ->
          List.for_all (function Agg _ -> false | Var _ | Const _ -> true) a.args
        | Cmp (_, t1, t2) ->
          List.for_all (function Agg _ -> false | Var _ | Const _ -> true) [ t1; t2 ])
      r.body
  in
  let head_ok = List.for_all bound (vars_of_atom r.head) in
  let body_ok =
    List.for_all
      (function
        | Pos _ -> true
        | Neg a -> List.for_all bound (vars_of_atom a)
        | Cmp (_, t1, t2) -> List.for_all bound (vars_of_term (vars_of_term [] t1) t2))
      r.body
  in
  no_body_aggregates && head_ok && body_ok

(* Listed facts of a derived predicate [p] move to the extensional
   [p'listed], read back by the exit rule [p(X0..Xn) :- p'listed(X0..Xn)].
   The quote keeps the shadow out of the lexer's reach. *)
let shadow_listed_facts program =
  let derived = Hashtbl.create 16 in
  List.iter (fun r -> if r.body <> [] then Hashtbl.replace derived r.head.pred ()) program;
  let exits = ref [] in
  let shadow r =
    let pred = r.head.pred in
    if rule_is_fact r && Hashtbl.mem derived pred then begin
      let listed = pred ^ "'listed" in
      if not (List.exists (fun e -> e.head.pred = pred) !exits) then begin
        let args = List.mapi (fun i _ -> Var ("X" ^ string_of_int i)) r.head.args in
        exits := { head = { pred; args }; body = [ Pos { pred = listed; args } ] } :: !exits
      end;
      { r with head = { r.head with pred = listed } }
    end
    else r
  in
  let shadowed = List.map shadow program in
  if !exits = [] then program else shadowed @ List.rev !exits

let pp_const ppf = function
  | Sym s -> Format.fprintf ppf "%S" s
  | Int i -> Format.pp_print_int ppf i

let pp_agg ppf a =
  Format.pp_print_string ppf
    (match a with Count -> "cnt" | Sum -> "sum" | Min -> "min" | Max -> "max")

let pp_term ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Const c -> pp_const ppf c
  | Agg (a, v) -> Format.fprintf ppf "%a(%s)" pp_agg a v

let pp_atom ppf a =
  Format.fprintf ppf "%s(%a)" a.pred
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_term)
    a.args

let cmp_symbol = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_literal ppf = function
  | Pos a -> pp_atom ppf a
  | Neg a -> Format.fprintf ppf "!%a" pp_atom a
  | Cmp (c, t1, t2) -> Format.fprintf ppf "%a %s %a" pp_term t1 (cmp_symbol c) pp_term t2

let pp_rule ppf r =
  if r.body = [] then Format.fprintf ppf "%a." pp_atom r.head
  else
    Format.fprintf ppf "%a :- %a." pp_atom r.head
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_literal)
      r.body

let pp_program ppf p =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_rule ppf p
