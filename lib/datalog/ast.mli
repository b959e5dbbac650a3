(** Abstract syntax of Datalog programs.

    Classic Datalog with stratified negation and comparison built-ins:
    {v
    edge("a", "b").
    path(X, Y) :- edge(X, Y).
    path(X, Z) :- path(X, Y), edge(Y, Z).
    far(X, Y)  :- path(X, Y), !edge(X, Y).
    big(X)     :- size(X, N), N >= 10.
    v} *)

type const = Sym of string | Int of int

type agg = Count | Sum | Min | Max

type term =
  | Var of string
  | Const of const
  | Agg of agg * string
      (** aggregate over a body variable; legal only in rule heads —
          [total(X, sum(C)) :- line(X, I), cost(I, C).] groups body
          matches by the plain head variables and folds the aggregate
          over the {e distinct} (group, aggregated-variable) bindings *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type atom = { pred : string; args : term list }

type literal =
  | Pos of atom
  | Neg of atom  (** stratified negation *)
  | Cmp of cmp * term * term  (** built-in; both terms must be bound *)

type rule = { head : atom; body : literal list }
(** A rule with an empty body whose head is ground is a fact. *)

type program = rule list

val compare_const : const -> const -> int
(** Total order: integers numerically, then symbols lexicographically. *)

val atom_is_ground : atom -> bool

val rule_is_fact : rule -> bool

val term_var : term -> string option
(** The variable a term binds or mentions: [Var v] and [Agg (_, v)]
    yield [v], constants [None]. *)

val vars_of_atom : atom -> string list
(** Distinct variables, in order of first occurrence; aggregate-bound
    variables included. *)

val rule_is_aggregate : rule -> bool
(** The head mentions at least one aggregate term. *)

val range_restricted : rule -> bool
(** Every head variable (aggregated or not) and every variable under
    negation or comparison appears in some positive body atom (facts:
    head must be ground). Aggregate terms may only appear in heads. *)

val shadow_listed_facts : program -> program
(** The program with every listed fact of a derived predicate [p] (one
    that some rule with a body defines) moved to the extensional
    predicate [p'listed], which no parsed program, update or query can
    name, plus one exit rule [p(X0, ..., Xn) :- p'listed(X0, ..., Xn)]
    per such [p]. The facts stay in the materialization, but as
    derivations: maintenance keeps them as extensional support through
    any update. Idempotent; a program listing no such facts comes back
    unchanged. {!Eval}, {!Incremental} and {!Analyze} apply it to every
    program they are given. *)

val pp_agg : Format.formatter -> agg -> unit

val pp_const : Format.formatter -> const -> unit

val pp_term : Format.formatter -> term -> unit

val pp_atom : Format.formatter -> atom -> unit

val pp_literal : Format.formatter -> literal -> unit

val pp_rule : Format.formatter -> rule -> unit

val pp_program : Format.formatter -> program -> unit
