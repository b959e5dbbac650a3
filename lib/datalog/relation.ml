type tuple = int array

let rec eq_from (a : tuple) (b : tuple) i n =
  i = n || (Array.unsafe_get a i = Array.unsafe_get b i && eq_from a b (i + 1) n)

module Tuple_tbl = Hashtbl.Make (struct
  type t = tuple

  (* Monomorphic element-wise comparison: polymorphic [=] on arrays
     walks the generic structural-equality runtime path per tuple
     probe. [eq_from] is top-level so a comparison allocates no
     closure. *)
  let equal a b =
    let n = Array.length a in
    n = Array.length b && eq_from a b 0 n

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

(* ---- derivation counts (counting maintenance) ----

   Per-tuple derivation counts for {!Incremental}'s counting engine
   live in the relation's own tuple slot: the value the tuple table
   (and every index bucket) maps a tuple to is its count cell. A
   relation the counting engine does not maintain maps every tuple to
   the one shared sentinel [no_cell], so DRed, {!Eval}, snapshots and
   queries allocate nothing and look nothing up for counts. A counted
   relation gives every present tuple a cell of its own: all its
   tuples are derived ({!Ast.shadow_listed_facts} turns a listed fact
   of a derived predicate into an exit derivation). Counts are split
   into [exits] (derivations by rules with no same-component body
   atom — acyclic support by construction) and
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
   exempts a suspect from the full backward probe.

   [synced_version] records the relation version the counts were last
   consistent with: any mutation outside the counting engine bumps the
   version, so stale counts are detected and rebuilt instead of
   silently trusted. *)

type count_cell = {
  key : tuple;
  mutable exits : int;
  mutable recs : int;
  mutable level : int;
  mutable low : int;
  mutable debt : int;
  mutable dexits : int;
  mutable drecs : int;
  mutable dlow : int;
  mutable mark : int;
}

let fresh_cell key =
  {
    key;
    exits = 0;
    recs = 0;
    level = max_int;
    low = 0;
    debt = 0;
    dexits = 0;
    drecs = 0;
    dlow = 0;
    mark = 0;
  }

(* the two sentinels: never written, and distinguished by [==] only *)
let no_cell = fresh_cell [||]

let absent = fresh_cell [||]

let make_cell tup = fresh_cell (Array.copy tup)

type counts = { mutable synced_version : int }

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
  tuples : count_cell Tuple_tbl.t;  (* each tuple's slot holds its cell *)
  mutable owner : (string * string) option;
      (* (relation name, owner tag): mutations outside a matching
         [Sanitize.with_writer] scope raise [Sanitize_violation] *)
  mutable counts : counts option;
  indexes : (int, count_cell Tuple_tbl.t) Hashtbl.t option Atomic.t array;
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

let create_sized ~size ~arity =
  if arity < 0 then invalid_arg "Relation.create: negative arity";
  {
    arity;
    tuples = Tuple_tbl.create size;
    owner = None;
    counts = None;
    indexes = Array.init (max arity 1) (fun _ -> Atomic.make None);
    version = 0;
  }

let create ~arity = create_sized ~size:64 ~arity

(* [Hashtbl]'s least initial size *)
let create_small ~arity = create_sized ~size:16 ~arity

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

let index_add t tup cell =
  Array.iteri
    (fun col slot ->
      match Atomic.get slot with
      | None -> ()
      | Some idx -> Tuple_tbl.replace (bucket_of idx tup.(col)) tup cell)
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

(* [own] makes the caller's array one the relation may keep *)
let insert t tup ~own cell =
  check t tup;
  sanitize_check t;
  if Tuple_tbl.mem t.tuples tup then false
  else begin
    let tup = own tup in
    t.version <- t.version + 1;
    Tuple_tbl.replace t.tuples tup cell;
    index_add t tup cell;
    true
  end

let add t tup = insert t tup ~own:Array.copy no_cell

let add_cell t cell = insert t cell.key ~own:Fun.id cell

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
    (fun tup _ ->
      guard t v0;
      f tup)
    t.tuples

let fold f acc t =
  let v0 = t.version in
  Tuple_tbl.fold
    (fun tup _ acc ->
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

   All mutation of counts is single-owner, like the store itself. A
   cell's [key] is the array its slot is keyed by: [make_cell] copies
   the caller's tuple, as [add] does. *)

let slot t tup =
  check t tup;
  match Tuple_tbl.find t.tuples tup with cell -> cell | exception Not_found -> absent

let set_cell t cell =
  let tup = cell.key in
  if not (Tuple_tbl.mem t.tuples tup) then invalid_arg "Relation.set_cell: tuple absent";
  Tuple_tbl.replace t.tuples tup cell;
  index_add t tup cell

let some_no_cell = Some no_cell

let reset_cells t =
  let none _ _ = some_no_cell in
  Tuple_tbl.filter_map_inplace none t.tuples;
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | None -> ()
      | Some idx -> Hashtbl.iter (fun _ b -> Tuple_tbl.filter_map_inplace none b) idx)
    t.indexes

let counts_attach t =
  reset_cells t;
  t.counts <- Some { synced_version = min_int }

let counts_synced t =
  match t.counts with
  | Some c when c.synced_version = t.version -> Some c
  | Some _ | None -> None

let counts_sync t =
  match t.counts with
  | Some c -> c.synced_version <- t.version
  | None -> ()

let counts_unsync t =
  match t.counts with
  | Some c -> c.synced_version <- min_int
  | None -> ()

let count_find t tup =
  let cell = slot t tup in
  if cell == absent || cell == no_cell then None else Some cell

let count_total cell = cell.exits + cell.recs

let iter_slots f t =
  let v0 = t.version in
  Tuple_tbl.iter
    (fun tup cell ->
      guard t v0;
      f tup cell)
    t.tuples

let counts_iter f t = iter_slots (fun tup cell -> if cell != no_cell then f tup cell) t

(* Build fully, publish atomically: a sibling domain either sees [None]
   (and builds its own complete copy) or a finished index — never a
   hashtable under construction. *)
let build_index t col =
  let idx = Hashtbl.create 64 in
  Tuple_tbl.iter (fun tup cell -> Tuple_tbl.replace (bucket_of idx tup.(col)) tup cell) t.tuples;
  Atomic.set t.indexes.(col) (Some idx);
  idx

(* [value]'s bucket in the index of column [col], built on first use;
   [fn] names the caller in the bad-column error *)
let bucket fn t ~col ~value =
  if col < 0 || col >= t.arity then invalid_arg ("Relation." ^ fn ^ ": bad column");
  let idx =
    match Atomic.get t.indexes.(col) with Some idx -> idx | None -> build_index t col
  in
  Hashtbl.find_opt idx value

(* The probe hot path: hand matching tuples to [f] straight out of the
   index bucket, no intermediate list. *)
let iter_matching t ~col ~value f =
  match bucket "iter_matching" t ~col ~value with
  | None -> ()
  | Some b ->
    let v0 = t.version in
    Tuple_tbl.iter
      (fun tup _ ->
        guard t v0;
        f tup)
      b

let iter_matching_cells t ~col ~value f =
  match bucket "iter_matching_cells" t ~col ~value with
  | None -> ()
  | Some b ->
    let v0 = t.version in
    Tuple_tbl.iter
      (fun tup cell ->
        guard t v0;
        f tup cell)
      b

let fold_matching t ~col ~value f acc =
  match bucket "fold_matching" t ~col ~value with
  | None -> acc
  | Some b ->
    let v0 = t.version in
    Tuple_tbl.fold
      (fun tup _ acc ->
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
