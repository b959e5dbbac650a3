(** Predicate dependency analysis and stratification.

    Builds the predicate dependency graph (edge [b -> h] when [b] occurs
    in the body of a rule for [h], marked negative when under negation),
    condenses its strongly connected components (each SCC is one
    mutually-recursive clique — one fixpoint task in the paper's DAG),
    and assigns strata so that negation never crosses into its own
    stratum. *)

type t = {
  predicates : string array;  (** index -> predicate name *)
  index_of : (string, int) Hashtbl.t;
  graph : Dag.Graph.t;  (** predicate dependency graph, may be cyclic *)
  negative : bool array;  (** per edge id: dependency under negation *)
  condensation : Dag.Scc.condensation;
  stratum_of_comp : int array;  (** component -> stratum *)
  stratum_count : int;
  edb : bool array;
      (** per predicate: extensional (never a rule head; facts only) *)
  comp_rules : Ast.rule list array;
      (** per component: its derivation rules (non-empty body) in
          program order; facts are not included *)
}

exception Unstratifiable of string
(** Raised when a predicate depends negatively on itself through a
    recursive cycle. The payload names one offending predicate. *)

val analyze : Ast.program -> t
(** @raise Unstratifiable when negation occurs inside an SCC. *)

val stratum : t -> string -> int
(** @raise Not_found for unknown predicates. *)

val predicates_by_stratum : t -> string list array

val scc_order : t -> int array
(** Component ids in a topological evaluation order (dependencies
    first), grouped by increasing stratum. *)
