(* Constant interning, shared by every relation of a database.

   The symbol table is the one Datalog-side structure that parallel
   maintenance cannot partition by component: aggregate recomputation
   mints data-dependent constants (group counts, sums) at task run
   time, so [intern] must be callable from any worker domain. The
   store is therefore split by access pattern:

   - writes ([intern]) serialize on a mutex — they are rare at
     maintenance time (a handful of aggregate results per update;
     everything else was interned during parsing or plan compilation);
   - reads ([const_of], [compare_codes], [count]) are lock-free over
     an atomically published snapshot. The consts array is only ever
     replaced wholesale (grow-by-copy, then [Atomic.set]), and a code
     is handed out only after its slot is written, the array holding
     it published, and finally [count] bumped. A reader that validates
     [code < count] is thereby guaranteed to reach the slot: the SC
     load of [count] orders its subsequent load of [consts] after the
     writer's publication, and every later snapshot is a superset.
     This matters on the hot path — [compare_codes] backs every
     comparison filter in compiled plans. *)

type t = {
  lock : Mutex.t;
  codes : (Ast.const, int) Hashtbl.t;  (* guarded by [lock] *)
  consts : Ast.const array Atomic.t;  (* slots below [count] are frozen *)
  count : int Atomic.t;
}

let dummy = Ast.Int 0

let create () =
  {
    lock = Mutex.create ();
    codes = Hashtbl.create 64;
    consts = Atomic.make (Array.make 64 dummy);
    count = Atomic.make 0;
  }

let intern t c =
  Mutex.lock t.lock;
  let code =
    match Hashtbl.find_opt t.codes c with
    | Some code -> code
    | None ->
      let code = Atomic.get t.count in
      let arr = Atomic.get t.consts in
      let arr =
        if code < Array.length arr then arr
        else begin
          let bigger = Array.make (2 * Array.length arr) dummy in
          Array.blit arr 0 bigger 0 code;
          bigger
        end
      in
      (* publication order: slot, then (if grown) the array, then the
         count — a reader gated on [count] can always reach the slot *)
      arr.(code) <- c;
      if arr != Atomic.get t.consts then Atomic.set t.consts arr;
      Atomic.set t.count (code + 1);
      Hashtbl.add t.codes c code;
      code
  in
  Mutex.unlock t.lock;
  code

let find t c =
  Mutex.lock t.lock;
  let code = Hashtbl.find_opt t.codes c in
  Mutex.unlock t.lock;
  code

let const_of t code =
  if code < 0 || code >= Atomic.get t.count then
    invalid_arg (Printf.sprintf "Symbol.const_of: unknown code %d" code);
  (Atomic.get t.consts).(code)

let count t = Atomic.get t.count

let compare_codes t a b = Ast.compare_const (const_of t a) (const_of t b)
