(* Rule compilation: each rule is planned once — constants pre-interned,
   variables mapped to integer slots, body literals reordered by a
   static selectivity heuristic — and then executed many times over a
   flat reusable [int array] environment with allocation-free index
   probes. The interpretive matcher ({!Matcher.eval_rule}) survives as
   the reference oracle; {!executor} picks between the two. *)

type src = Sconst of int | Sslot of int

(* One argument position of a positive atom, specialized at compile
   time by what is known to be bound when the literal executes. Because
   execution is depth-first over a fixed literal order, boundness is
   static: a slot is written exactly by the [Bind] of its first
   occurrence on every path that reads it, so no unbinding or occupancy
   bitmap is needed. *)
type arg_op =
  | Check_const of int * int  (* column must equal the interned code *)
  | Check_slot of int * int  (* column must equal an already-bound slot *)
  | Bind of int * int  (* first occurrence: write column into slot *)

type probe =
  | Scan  (* no argument bound at this point: full relation scan *)
  | Probe of int * src  (* indexed probe on (column, value source) *)

type step =
  | Match of {
      pred : string;
      arity : int;
      probe : probe;
      ops : arg_op array;
      late : bool;
      orig : int;
    }
      (* [late]: the literal's *original* body position is after the
         delta position, so under split-view execution it reads
         [late_view] instead of [view]. Baked at compile time (the
         delta position is a compile parameter), invariant under the
         selectivity reorder: telescoped signed-delta maintenance
         evaluates Δ at position i against new₁…newᵢ₋₁ · oldᵢ₊₁…oldₖ,
         and "before/after i" refers to syntactic positions.

         [orig] is the literal's original (syntactic) body position;
         the selectivity reorder permutes steps but preserves it, so
         witness extraction ({!run}'s [?witness]) can name a literal
         independently of the chosen join order. *)
  | Delta of { arity : int; ops : arg_op array; orig : int }
      (* the semi-naive literal: ranges over the delta relation passed
         to {!run} instead of the view *)
  | Reject of { pred : string; args : src array; scratch : int array; late : bool }
      (* negated atom, all arguments bound: membership must fail *)
  | Filter of { op : Ast.cmp; a : src; b : src }

type t = {
  symbols : Symbol.t;
  steps : step array;
  head : src array;
  env : int array;  (* slot scratch, reused across executions *)
  head_buf : int array;  (* head tuple scratch; valid only inside on_derived *)
  mutable running : bool;
      (* the scratch above makes a plan non-reentrant; [run] raises
         instead of silently corrupting bindings *)
}

let term_src slots symbols = function
  | Ast.Const c -> Some (Sconst (Symbol.intern symbols c))
  | Ast.Var v -> (
    match Hashtbl.find_opt slots v with Some s -> Some (Sslot s) | None -> None)
  | Ast.Agg _ -> invalid_arg "Plan: aggregate term in a rule body"

let compile ?delta ~symbols ~card (rule : Ast.rule) =
  (* [slots] doubles as the bound-variable set: a variable has a slot
     iff some already-emitted step binds it. *)
  let slots : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let nslots = ref 0 in
  let alloc v =
    let s = !nslots in
    incr nslots;
    Hashtbl.add slots v s;
    s
  in
  (* Compile an atom's argument list; allocates slots for first
     occurrences. [skip_col] is the probed column, already guaranteed
     equal by the index bucket. *)
  let compile_args ~skip_col (args : Ast.term list) =
    let ops = ref [] in
    List.iteri
      (fun col t ->
        match t with
        | Ast.Const c ->
          if col <> skip_col then
            ops := Check_const (col, Symbol.intern symbols c) :: !ops
        | Ast.Var v -> (
          match Hashtbl.find_opt slots v with
          | Some s -> if col <> skip_col then ops := Check_slot (col, s) :: !ops
          | None -> ops := Bind (col, alloc v) :: !ops)
        | Ast.Agg _ -> invalid_arg "Plan: aggregate term in a body atom")
      args;
    Array.of_list (List.rev !ops)
  in
  (* original body position [i] > delta position ⇒ the literal reads
     the late view under split-view execution *)
  let is_late i = match delta with Some di -> i > di | None -> false in
  let compile_pos ~late ~orig (a : Ast.atom) =
    (* probe on the first argument resolvable before this literal binds
       anything new — same column the interpreter would pick *)
    let probe =
      let rec go col = function
        | [] -> Scan
        | t :: rest -> (
          match term_src slots symbols t with
          | Some s -> Probe (col, s)
          | None -> go (col + 1) rest)
      in
      go 0 a.Ast.args
    in
    let skip_col = match probe with Probe (col, _) -> col | Scan -> -1 in
    let ops = compile_args ~skip_col a.Ast.args in
    Match { pred = a.Ast.pred; arity = List.length a.Ast.args; probe; ops; late; orig }
  in
  let ground_srcs (a : Ast.atom) =
    Array.of_list
      (List.map
         (fun t ->
           match term_src slots symbols t with
           | Some s -> s
           | None ->
             invalid_arg
               (Printf.sprintf
                  "Plan: unbound variable in %s (not range-restricted?)" a.Ast.pred))
         a.Ast.args)
  in
  let term_ready = function
    | Ast.Const _ -> true
    | Ast.Var v -> Hashtbl.mem slots v
    | Ast.Agg _ -> false
  in
  let lit_ready = function
    | Ast.Pos _ -> false (* generators are scheduled by selectivity, not readiness *)
    | Ast.Neg a -> List.for_all term_ready a.Ast.args
    | Ast.Cmp (_, t1, t2) -> term_ready t1 && term_ready t2
  in
  (* distinct variables of the atom not yet bound *)
  let unbound_count (a : Ast.atom) =
    let seen = Hashtbl.create 4 in
    List.iter
      (fun t ->
        match t with
        | Ast.Var v when not (Hashtbl.mem slots v) -> Hashtbl.replace seen v ()
        | Ast.Var _ | Ast.Const _ | Ast.Agg _ -> ())
      a.Ast.args;
    Hashtbl.length seen
  in
  let steps = ref [] in
  let emit s = steps := s :: !steps in
  let remaining = ref (List.mapi (fun i l -> (i, l)) rule.Ast.body) in
  (* The delta literal leads unconditionally: semi-naive maintenance is
     driven by the (small) changed set, so every later literal probes
     with delta-bound values. *)
  (match delta with
  | None -> ()
  | Some di -> (
    match List.assoc_opt di !remaining with
    | Some (Ast.Pos a) ->
      emit
        (Delta
           { arity = List.length a.Ast.args;
             ops = compile_args ~skip_col:(-1) a.Ast.args;
             orig = di });
      remaining := List.filter (fun (i, _) -> i <> di) !remaining
    | Some (Ast.Neg _ | Ast.Cmp _) | None ->
      invalid_arg "Plan.compile: delta literal must be a positive body atom"));
  while !remaining <> [] do
    (* filters fire as soon as their variables are bound: they only
       shrink the enumeration *)
    let ready, rest = List.partition (fun (_, l) -> lit_ready l) !remaining in
    if ready <> [] then begin
      List.iter
        (fun (i, l) ->
          match l with
          | Ast.Neg a ->
            emit
              (Reject
                 { pred = a.Ast.pred;
                   args = ground_srcs a;
                   scratch = Array.make (List.length a.Ast.args) 0;
                   late = is_late i })
          | Ast.Cmp (op, t1, t2) ->
            let s t =
              match term_src slots symbols t with Some s -> s | None -> assert false
            in
            emit (Filter { op; a = s t1; b = s t2 })
          | Ast.Pos _ -> assert false)
        ready;
      remaining := rest
    end
    else begin
      (* most selective generator next: fewest unbound variables (most
         join constraints), then smallest relation at plan time *)
      let best = ref None in
      List.iter
        (fun (i, l) ->
          match l with
          | Ast.Pos a ->
            let key = (unbound_count a, card a.Ast.pred, i) in
            (match !best with
            | Some (bkey, _, _) when bkey <= key -> ()
            | Some _ | None -> best := Some (key, i, a))
          | Ast.Neg _ | Ast.Cmp _ -> ())
        !remaining;
      match !best with
      | None ->
        (* only negations/comparisons with unbound variables remain *)
        invalid_arg
          (Printf.sprintf "Plan: rule for %s is not range-restricted"
             rule.Ast.head.Ast.pred)
      | Some (_, i, a) ->
        emit (compile_pos ~late:(is_late i) ~orig:i a);
        remaining := List.filter (fun (j, _) -> j <> i) !remaining
    end
  done;
  let head =
    Array.of_list
      (List.map
         (fun t ->
           match t with
           | Ast.Agg _ -> invalid_arg "Plan: aggregate term in a rule head"
           | Ast.Const _ | Ast.Var _ -> (
             match term_src slots symbols t with
             | Some s -> s
             | None ->
               invalid_arg
                 (Printf.sprintf "Plan: unbound variable in the head of %s"
                    rule.Ast.head.Ast.pred)))
         rule.Ast.head.Ast.args)
  in
  {
    symbols;
    steps = Array.of_list (List.rev !steps);
    head;
    env = Array.make !nslots 0;
    head_buf = Array.make (Array.length head) 0;
    running = false;
  }

(* Element-wise unification of a planned argument list against a
   concrete tuple. [unsafe_get]/[unsafe_set] are justified by the
   arity check at each Match/Delta step: columns < arity = tuple
   length, and slot indexes are < |env| by construction. *)
let unify_ops env ops tup =
  let n = Array.length ops in
  let rec go j =
    j = n
    || (match Array.unsafe_get ops j with
       | Check_const (col, code) -> Array.unsafe_get tup col = code
       | Check_slot (col, s) -> Array.unsafe_get tup col = Array.unsafe_get env s
       | Bind (col, s) ->
         Array.unsafe_set env s (Array.unsafe_get tup col);
         true)
       && go (j + 1)
  in
  go 0

let cmp_ok op c =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let run ?delta ?late_view ?witness ~view ~work ~on_derived p =
  if p.running then
    invalid_arg "Plan.run: reentrant execution of a plan (its scratch state is live)";
  p.running <- true;
  Fun.protect ~finally:(fun () -> p.running <- false) @@ fun () ->
  (* split-view execution: literals whose original position follows the
     delta position read [late_view]; everything else reads [view].
     Defaulting [late_view] to [view] makes the single-view case free. *)
  let lview = match late_view with Some v -> v | None -> view in
  let env = p.env in
  let steps = p.steps in
  let nsteps = Array.length steps in
  let value = function Sconst c -> c | Sslot s -> Array.unsafe_get env s in
  (* witness extraction: remember the tuple last unified at the body
     position [wpos] and hand it to [wfn] alongside each emission. The
     stash is the store's own array — valid only inside the callback,
     copy to retain (same contract as [on_derived]'s buffer). *)
  let wpos, wfn =
    match witness with Some (w, f) -> (w, f) | None -> (-1, fun _ -> ())
  in
  let wit = ref [||] in
  let rec exec i =
    if i = nsteps then begin
      let head = p.head in
      let buf = p.head_buf in
      for j = 0 to Array.length head - 1 do
        buf.(j) <- value (Array.unsafe_get head j)
      done;
      if wpos >= 0 then wfn !wit;
      on_derived buf
    end
    else
      match Array.unsafe_get steps i with
      | Match { pred; arity; probe; ops; late; orig } ->
        let v = if late then lview else view in
        let stash = orig = wpos in
        let try_tuple tup =
          incr work;
          if Array.length tup <> arity then
            invalid_arg (Printf.sprintf "Plan: arity mismatch on %s" pred);
          if unify_ops env ops tup then begin
            if stash then wit := tup;
            exec (i + 1)
          end
        in
        (match probe with
        | Scan -> v.Matcher.iter pred try_tuple
        | Probe (col, s) -> v.Matcher.iter_matching pred ~col ~value:(value s) try_tuple)
      | Delta { arity; ops; orig } -> (
        match delta with
        | None -> invalid_arg "Plan.run: plan has a delta literal but no ~delta"
        | Some d ->
          let stash = orig = wpos in
          Relation.iter
            (fun tup ->
              incr work;
              if Array.length tup <> arity then
                invalid_arg "Plan: arity mismatch on the delta relation";
              if unify_ops env ops tup then begin
                if stash then wit := tup;
                exec (i + 1)
              end)
            d)
      | Reject { pred; args; scratch; late } ->
        incr work;
        for j = 0 to Array.length args - 1 do
          scratch.(j) <- value (Array.unsafe_get args j)
        done;
        let v = if late then lview else view in
        if not (v.Matcher.mem pred scratch) then exec (i + 1)
      | Filter { op; a; b } ->
        incr work;
        if cmp_ok op (Symbol.compare_codes p.symbols (value a) (value b)) then
          exec (i + 1)
  in
  exec 0

(* ---- engine dispatch: compiled plans vs the interpretive oracle ---- *)

type engine = Compiled | Interpreted

let default_engine = Compiled

(* [compile] reads [card] only to break ties between positive atoms
   with equally many unbound variables, so two compilations of one rule
   (and delta position) are identical whenever the pairwise order of
   its positive body atoms' cardinalities agrees. [order] records that
   order; [checked] is the epoch in which it was last confirmed. *)
type cached = { plan : t; order : int array; mutable checked : int }

type plans = {
  rule : Ast.rule;
  symbols : Symbol.t;
  card : string -> int;
  epoch : int ref;
  mutable base : cached option;
  deltas : (int, cached) Hashtbl.t;  (* keyed by delta body position *)
  mutable replans : int;
}

type exec = Interp of { rule : Ast.rule; symbols : Symbol.t } | Plans of plans

let executor ?(epoch = ref 0) ~engine ~symbols ~card (rule : Ast.rule) =
  match engine with
  | Interpreted -> Interp { rule; symbols }
  | Compiled ->
    Plans
      { rule; symbols; card; epoch; base = None; deltas = Hashtbl.create 4; replans = 0 }

let card_order ~card (rule : Ast.rule) =
  let cards =
    Array.of_list
      (List.filter_map
         (function Ast.Pos a -> Some (card a.Ast.pred) | Ast.Neg _ | Ast.Cmp _ -> None)
         rule.Ast.body)
  in
  let k = Array.length cards in
  let order = Array.make (k * (k - 1) / 2) 0 in
  let n = ref 0 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      order.(!n) <- Int.compare cards.(i) cards.(j);
      incr n
    done
  done;
  order

(* The plan of [delta] position, valid for the current epoch: the first
   fetch in an epoch compares the cardinality order with the cached
   plan's and re-plans only when it changed; later fetches in the same
   epoch reuse the plan without looking. *)
let fetch ?delta p =
  let epoch = !(p.epoch) in
  let slot = match delta with None -> p.base | Some i -> Hashtbl.find_opt p.deltas i in
  match slot with
  | Some c when c.checked = epoch -> c.plan
  | Some _ | None -> (
    let order = card_order ~card:p.card p.rule in
    match slot with
    | Some c when c.order = order ->
      c.checked <- epoch;
      c.plan
    | Some _ | None ->
      if slot <> None then p.replans <- p.replans + 1;
      let plan = compile ?delta ~symbols:p.symbols ~card:p.card p.rule in
      let c = { plan; order; checked = epoch } in
      (match delta with None -> p.base <- Some c | Some i -> Hashtbl.replace p.deltas i c);
      plan)

let replans = function Interp _ -> 0 | Plans p -> p.replans

let exec_rule ?delta ?late_view ?witness ~view ~work ~on_derived e =
  match e with
  | Interp { rule; symbols } ->
    if late_view <> None then
      invalid_arg
        "Plan.exec_rule: the interpretive oracle has no split-view mode \
         (counting maintenance requires the Compiled engine)";
    if witness <> None then
      invalid_arg
        "Plan.exec_rule: the interpretive oracle has no witness extraction \
         (the well-founded support index requires the Compiled engine)";
    Matcher.eval_rule ~symbols ~view ?delta ~work ~on_derived rule
  | Plans p -> (
    match delta with
    | None -> run ?late_view ?witness ~view ~work ~on_derived (fetch p)
    | Some (i, d) ->
      run ~delta:d ?late_view ?witness ~view ~work ~on_derived (fetch ~delta:i p))

(* Force the compilation (or the re-plan check) a later [exec_rule
   ?delta] call would perform lazily. Compilation interns the rule's
   constants into the shared symbol table and consults [card]; a
   parallel maintenance driver prepares every plan it may need serially,
   so that task-time execution only reads the plan store. *)
let prepare ?delta = function Interp _ -> () | Plans p -> ignore (fetch ?delta p : t)

(* ---- static effect extraction ------------------------------------ *)

(* Read sets come from the instruction sequence itself — the artifact
   that actually executes — not from re-deriving them off the AST, so a
   planner bug that probed an unplanned relation would be visible to the
   ownership verifier. The [Delta] step carries no predicate (the delta
   relation is caller-supplied), but every delta-compiled plan is a
   restriction of the base plan, whose [Match]/[Reject] steps mention
   every body literal. *)

let add_pred acc p = if List.mem p acc then acc else p :: acc

let reads p =
  let acc =
    Array.fold_left
      (fun acc step ->
        match step with
        | Match { pred; _ } | Reject { pred; _ } -> add_pred acc pred
        | Delta _ | Filter _ -> acc)
      [] p.steps
  in
  List.sort String.compare acc

let body_reads (rule : Ast.rule) =
  let acc =
    List.fold_left
      (fun acc lit ->
        match lit with
        | Ast.Pos a | Ast.Neg a -> add_pred acc a.Ast.pred
        | Ast.Cmp _ -> acc)
      [] rule.Ast.body
  in
  List.sort String.compare acc

let exec_reads e =
  match e with
  | Interp { rule; _ } -> body_reads rule
  | Plans p -> (
    match p.base with
    | Some base ->
      let acc =
        Hashtbl.fold (fun _ c acc -> List.fold_left add_pred acc (reads c.plan))
          p.deltas (reads base.plan)
      in
      List.sort_uniq String.compare acc
    | None ->
      (* nothing compiled yet (or only delta plans, which elide the delta
         predicate): the rule body is the authoritative superset *)
      body_reads p.rule)

(* Evaluation callbacks in {!Eval} and {!Incremental} mutate the very
   relations the rule body is probing — the head relation when it also
   occurs as a body literal (recursive rules), and the net-delta overlay
   relations during maintenance. Those probes walk live index buckets,
   so mutation mid-enumeration is forbidden ({!Relation.iter_matching}).
   Enumerate first against the frozen state, buffering head tuples that
   pass [keep], then hand them to [on_derived] once no iteration is
   live. [keep] is a read-only pre-filter evaluated on the scratch
   buffer (typically a membership probe of the head relation) so that
   already-known derivations are never copied; [on_derived] must still
   dedupe, since one call can buffer the same new tuple twice. *)
let exec_rule_deferred ?delta ?late_view ~view ~work ~keep ~on_derived e =
  let buf = ref [] in
  exec_rule ?delta ?late_view ~view ~work
    ~on_derived:(fun tup -> if keep tup then buf := Array.copy tup :: !buf)
    e;
  List.iter on_derived (List.rev !buf)
