type tuple = int array

module Tuple_tbl = Hashtbl.Make (struct
  type t = tuple

  (* Monomorphic element-wise comparison: polymorphic [=] on arrays
     walks the generic structural-equality runtime path per tuple
     probe. *)
  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec eq i = i = n || (Array.unsafe_get a i = Array.unsafe_get b i && eq (i + 1)) in
    eq 0

  (* FNV-1a over the int elements directly. The previous
     [Hashtbl.hash (Array.to_list a)] allocated a list per lookup and
     hashed through the generic serializer; this is a tight loop with
     no allocation. Fold each element in as its own FNV byte-block
     (multiply-xor per element, not per byte — int elements here are
     small term/constant ids, one mixing round each is plenty), then
     mask to the non-negative range Hashtbl expects. *)
  let hash a =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor Array.unsafe_get a i) * 0x01000193
    done;
    !h land max_int
end)

(* ---- derivation-count side table (counting maintenance) ----

   Per-tuple derivation counts for {!Incremental}'s counting engine,
   kept in a side table next to the tuple store rather than inside it:
   the non-counting hot path ([add]/[remove]/[mem]/probes) never reads
   or writes the field, so the DRed engine pays nothing for its
   existence. Counts are split into [exits] (derivations by rules with
   no same-component body atom — acyclic support by construction) and
   [recs] (derivations by recursive rules); the backward phase uses the
   split to skip tuples that are exit-supported.

   [level] and [low] form the well-founded support index. [level] is
   the stratified-fixpoint round of the tuple's first well-founded
   derivation (Soufflé's @iteration): 0 for exit-supported tuples,
   [r] for tuples first leveled in recursive round [r], [max_int] for
   "unknown". A level is never lowered — lowering one retroactively
   changes how later derivation deaths classify against it, which can
   leave [low] overcounting (unsound). It may be raised by the
   counting engine's healing pass, which debits, in the same step,
   every consumer [low] entry that counted the tuple as a strictly
   lower witness and no longer can. [low] counts the surviving
   recursive derivations whose supporter is known to sit at a strictly
   lower level; it may undercount (unknown supporters are never
   counted) but must never overcount, because [exits = 0 && low > 0]
   exempts a suspect from the full backward probe. [unvouched] lists
   the present [exits = 0] tuples the index could not vouch for
   ([low = 0]) when the table was last made consistent: the next
   backward phase must suspect them whatever the batch touched.

   [synced_version] records the relation version the counts were last
   consistent with: any mutation outside the counting engine bumps the
   version, so stale counts are detected and rebuilt instead of
   silently trusted. *)

type count_cell = {
  mutable exits : int;
  mutable recs : int;
  mutable level : int;
  mutable low : int;
  mutable debt : int;
      (* backward-phase scratch: [low] entries condemned this call.
         Zero between calls — the phase unwinds what it filed. Living
         in the cell keeps the O(1) well-foundedness check free of
         side-table hashing. *)
}

type counts = {
  cells : count_cell Tuple_tbl.t;
  mutable synced_version : int;
  mutable unvouched : tuple list;
}

(* ---- write-set sanitizer ----------------------------------------

   Debug-mode enforcement of the ownership discipline the static
   analysis ({!Analyze}) verifies on plans: when maintenance runs with
   the sanitizer on, every relation a component owns is tagged with
   that component's owner string, each maintenance task executes inside
   a [with_writer] scope carrying its own tag, and every mutation
   checks tag against scope. The current writer lives in domain-local
   storage so the check works unchanged under parallel maintenance.
   With no tag set (the default), the cost is one field read per
   mutation. *)

exception Sanitize_violation of string

let sanitize_writer_key : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

type t = {
  arity : int;
  tuples : unit Tuple_tbl.t;
  mutable owner : (string * string) option;
      (* (relation name, owner tag): mutations outside a matching
         [Sanitize.with_writer] scope raise [Sanitize_violation] *)
  mutable counts : counts option;
  indexes : (int, unit Tuple_tbl.t) Hashtbl.t option Atomic.t array;
      (* indexes.(col), built lazily; kept consistent once built. Each
         slot is an [Atomic.t] so a lazy build on a relation shared
         read-only across domains publishes a *fully constructed*
         index: plain-field publication could be observed partially
         initialized under the OCaml memory model. Concurrent probers
         may race to build the same column; the loser's table is
         simply dropped (both are complete, last [Atomic.set] wins).
         Mutation ([add]/[remove]/[clear]) remains single-owner, as
         everywhere in this module. *)
  mutable version : int;
      (* bumped by every successful add/remove and by clear. Iteration
         walks live hashtable buckets, and OCaml Hashtbl mutation during
         iteration is unspecified (a resize relinks bucket cells, so a
         walk can silently skip pre-existing tuples); the guards below
         compare against this counter to fail fast instead. *)
}

let create ~arity =
  if arity < 0 then invalid_arg "Relation.create: negative arity";
  {
    arity;
    tuples = Tuple_tbl.create 64;
    owner = None;
    counts = None;
    indexes = Array.init (max arity 1) (fun _ -> Atomic.make None);
    version = 0;
  }

let arity t = t.arity

let cardinality t = Tuple_tbl.length t.tuples

let check t tup =
  if Array.length tup <> t.arity then
    invalid_arg
      (Printf.sprintf "Relation: tuple arity %d, expected %d" (Array.length tup) t.arity)

let mem t tup =
  check t tup;
  Tuple_tbl.mem t.tuples tup

(* Every mutation entry point calls this first. Attempted writes count
   even when they would be no-ops (a duplicate [add], an absent
   [remove]): a task reaching for a relation it does not own is an
   ownership bug regardless of whether the store happened to change. *)
let sanitize_check t =
  match t.owner with
  | None -> ()
  | Some (rel_name, owner) -> (
    match Domain.DLS.get sanitize_writer_key with
    | Some w when String.equal w owner -> ()
    | Some w ->
      raise
        (Sanitize_violation
           (Printf.sprintf "relation %s is owned by %s but was mutated by %s"
              rel_name owner w))
    | None ->
      raise
        (Sanitize_violation
           (Printf.sprintf
              "relation %s is owned by %s but was mutated outside any writer scope"
              rel_name owner)))

let bucket_of idx value =
  match Hashtbl.find_opt idx value with
  | Some b -> b
  | None ->
    let b = Tuple_tbl.create 8 in
    Hashtbl.add idx value b;
    b

let index_add t tup =
  Array.iteri
    (fun col slot ->
      match Atomic.get slot with
      | None -> ()
      | Some idx -> Tuple_tbl.replace (bucket_of idx tup.(col)) tup ())
    t.indexes

let index_remove t tup =
  Array.iteri
    (fun col slot ->
      match Atomic.get slot with
      | None -> ()
      | Some idx -> (
        match Hashtbl.find_opt idx tup.(col) with
        | Some b -> Tuple_tbl.remove b tup
        | None -> ()))
    t.indexes

let add t tup =
  check t tup;
  sanitize_check t;
  if Tuple_tbl.mem t.tuples tup then false
  else begin
    let tup = Array.copy tup in
    t.version <- t.version + 1;
    Tuple_tbl.replace t.tuples tup ();
    index_add t tup;
    true
  end

let remove t tup =
  check t tup;
  sanitize_check t;
  if Tuple_tbl.mem t.tuples tup then begin
    t.version <- t.version + 1;
    Tuple_tbl.remove t.tuples tup;
    index_remove t tup;
    true
  end
  else false

(* Best-effort fail-fast check, evaluated before handing out each tuple:
   catches a callback that mutated the relation on any tuple but the
   last one of a walk. *)
let guard t v0 =
  if t.version <> v0 then
    invalid_arg
      "Relation: mutation during iteration (defer updates until the walk finishes)"

let iter f t =
  let v0 = t.version in
  Tuple_tbl.iter
    (fun tup () ->
      guard t v0;
      f tup)
    t.tuples

let fold f acc t =
  let v0 = t.version in
  Tuple_tbl.fold
    (fun tup () acc ->
      guard t v0;
      f acc tup)
    t.tuples acc

let to_list t = fold (fun acc tup -> tup :: acc) [] t

let copy t =
  let fresh = create ~arity:t.arity in
  iter (fun tup -> ignore (add fresh tup)) t;
  fresh

let clear t =
  sanitize_check t;
  t.version <- t.version + 1;
  Tuple_tbl.reset t.tuples;
  t.counts <- None;
  Array.iter (fun slot -> Atomic.set slot None) t.indexes

(* ---- count operations --------------------------------------------

   All mutation of counts is single-owner, like the store itself. The
   cells table is keyed by copies of the tuples (a caller's scratch
   array must not alias a key), mirroring [add]. *)

let counts_create () =
  { cells = Tuple_tbl.create 64; synced_version = min_int; unvouched = [] }

let counts_attach t =
  let c = counts_create () in
  t.counts <- Some c;
  c

let counts_detach t = t.counts <- None

let counts_synced t =
  match t.counts with
  | Some c when c.synced_version = t.version -> Some c
  | Some _ | None -> None

let counts_sync t =
  match t.counts with
  | Some c -> c.synced_version <- t.version
  | None -> ()

let counts_unvouched c = c.unvouched

let counts_set_unvouched c tups = c.unvouched <- tups

let count_find c tup = Tuple_tbl.find_opt c.cells tup

let count_cell c tup =
  match Tuple_tbl.find_opt c.cells tup with
  | Some cell -> cell
  | None ->
    let cell = { exits = 0; recs = 0; level = max_int; low = 0; debt = 0 } in
    Tuple_tbl.replace c.cells (Array.copy tup) cell;
    cell

let count_total cell = cell.exits + cell.recs

let count_drop c tup = Tuple_tbl.remove c.cells tup

let counts_iter f c = Tuple_tbl.iter f c.cells

let counts_cardinality c = Tuple_tbl.length c.cells

(* Build fully, publish atomically: a sibling domain either sees [None]
   (and builds its own complete copy) or a finished index — never a
   hashtable under construction. *)
let build_index t col =
  let idx = Hashtbl.create 64 in
  iter (fun tup -> Tuple_tbl.replace (bucket_of idx tup.(col)) tup ()) t;
  Atomic.set t.indexes.(col) (Some idx);
  idx

(* The probe hot path: hand matching tuples to [f] straight out of the
   index bucket, no intermediate list. *)
let iter_matching t ~col ~value f =
  if col < 0 || col >= t.arity then invalid_arg "Relation.iter_matching: bad column";
  let idx =
    match Atomic.get t.indexes.(col) with Some idx -> idx | None -> build_index t col
  in
  match Hashtbl.find_opt idx value with
  | None -> ()
  | Some b ->
    let v0 = t.version in
    Tuple_tbl.iter
      (fun tup () ->
        guard t v0;
        f tup)
      b

let fold_matching t ~col ~value f acc =
  if col < 0 || col >= t.arity then invalid_arg "Relation.fold_matching: bad column";
  let idx =
    match Atomic.get t.indexes.(col) with Some idx -> idx | None -> build_index t col
  in
  match Hashtbl.find_opt idx value with
  | None -> acc
  | Some b ->
    let v0 = t.version in
    Tuple_tbl.fold
      (fun tup () acc ->
        guard t v0;
        f acc tup)
      b acc

let find t ~col ~value = fold_matching t ~col ~value (fun acc tup -> tup :: acc) []

let prepare ?cols t =
  let build col =
    if col < 0 || col >= t.arity then invalid_arg "Relation.prepare: bad column";
    match Atomic.get t.indexes.(col) with
    | Some _ -> ()
    | None -> ignore (build_index t col)
  in
  match cols with
  | Some cols -> List.iter build cols
  | None ->
    for col = 0 to t.arity - 1 do
      build col
    done

let choose_probe_col t ~bound =
  let rec go col = if col >= t.arity then None else if bound col then Some col else go (col + 1) in
  go 0

type relation = t

module Sanitize = struct
  exception Violation = Sanitize_violation

  let set_owner t ~name ~owner = t.owner <- Some (name, owner)

  let clear_owner t = t.owner <- None

  let owner t = Option.map snd t.owner

  let writer () = Domain.DLS.get sanitize_writer_key

  let with_writer tag f =
    let prev = Domain.DLS.get sanitize_writer_key in
    Domain.DLS.set sanitize_writer_key (Some tag);
    Fun.protect ~finally:(fun () -> Domain.DLS.set sanitize_writer_key prev) f
end

let () =
  Printexc.register_printer (function
    | Sanitize_violation msg -> Some ("ownership sanitizer: " ^ msg)
    | _ -> None)
