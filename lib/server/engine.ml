(* Epoch engine: admission queue -> one Incr_sched.update per commit
   -> the snapshot patched with that commit's net deltas. See the .mli
   for the lifecycle; the key invariants here are

   - queries only ever read the snapshot (relations of its own, never
     the live database's) and the append-only symbol table, so the
     commit domain owns the live database exclusively while a
     background commit runs;
   - the snapshot is written only by [publish] and read only by
     [query]/[submit], all on the one client thread, and [publish]
     runs only after the commit's run has finished;
   - the obs rings are written by at most one party at a time: the
     maintenance run inside the commit (caller thread or commit
     domain), or the engine's own srv spans, emitted strictly before a
     run starts / after its outcome was collected. *)

type op = Add | Del

type commit_stats = {
  epoch : int;
  ops : int;
  additions : int;
  deletions : int;
  changed : int;
  run_s : float;
  latency_s : float;
}

type job = {
  target : int;
  job_ops : int;
  job_adds : int;
  job_dels : int;
  request : float;  (* Mclock at the commit request *)
  start_ns : int;  (* ring stamp at run start, for srv-commit *)
  outcome : (Datalog.To_trace.t * float) Commit_domain.pending;
}

type t = {
  session : Incr_sched.datalog_session;
  maint : Datalog.Incremental.maint;
  domains : int;
  obs : Obs.Trace.t;
  idb : (string, unit) Hashtbl.t;
  pending : (string, op) Hashtbl.t;
  mutable pending_order : string list;  (* first-seen order, reversed *)
  snapshot : (string, Datalog.Relation.t) Hashtbl.t;
      (* the published epoch [epoch]; patched in place by [publish] *)
  mutable published_ns : int;  (* ring stamp of publication, for srv-epoch *)
  mutable epoch : int;
  mutable ncommits : int;
  mutable inflight : job option;
  mutable commit_queued : bool;
  mutable queued_request : float;
  mutable completed : commit_stats list;  (* oldest first *)
  mutable labels : string array;  (* component labels of the latest run *)
}

let ring t = Obs.Trace.ring t.obs 0

let freeze_all db =
  let rels = Hashtbl.create 32 in
  List.iter
    (fun (name, rel) -> Hashtbl.replace rels name (Datalog.Relation.copy rel))
    (Datalog.Database.predicates db);
  rels

let create ?(maint = Datalog.Incremental.Dred) ?(domains = 1) ?(obs = Obs.Trace.disabled)
    (session : Incr_sched.datalog_session) =
  let idb = Hashtbl.create 16 in
  List.iter
    (fun (r : Datalog.Ast.rule) ->
      if r.body <> [] then Hashtbl.replace idb r.head.pred ())
    session.program;
  {
    session;
    maint;
    domains = max 1 domains;
    obs;
    idb;
    pending = Hashtbl.create 64;
    pending_order = [];
    snapshot = freeze_all session.db;
    published_ns = 0;
    epoch = 0;
    ncommits = 0;
    inflight = None;
    commit_queued = false;
    queued_request = 0.0;
    completed = [];
    labels = [||];
  }

let epoch (t : t) = t.epoch
let pending_ops t = Hashtbl.length t.pending
let inflight t = t.inflight <> None
let commits t = t.ncommits
let maint t = t.maint
let domains t = t.domains
let db t = t.session.db

let snapshot_relation t pred = Hashtbl.find_opt t.snapshot pred

let snapshot_facts t =
  Hashtbl.fold
    (fun _ rel acc -> acc + Datalog.Relation.cardinality rel)
    t.snapshot 0

(* ---- admission ---- *)

let canonical (atom : Datalog.Ast.atom) =
  if atom.args = [] then atom.pred
  else Format.asprintf "%a" Datalog.Ast.pp_atom atom

let submit t side text =
  match Datalog.Parser.parse_atom text with
  | exception Datalog.Parser.Error { col; message; _ } ->
    Error (Printf.sprintf "bad fact (column %d): %s" col message)
  | atom ->
    if not (Datalog.Ast.atom_is_ground atom) then
      Error "fact must be ground (no variables)"
    else if Hashtbl.mem t.idb atom.pred then
      Error
        (Printf.sprintf "%s is derived; only base facts can be updated"
           atom.pred)
    else begin
      match Hashtbl.find_opt t.snapshot atom.pred with
      | Some rel
        when Datalog.Relation.arity rel <> List.length atom.args ->
        Error
          (Printf.sprintf "%s has arity %d, not %d" atom.pred
             (Datalog.Relation.arity rel)
             (List.length atom.args))
      | Some _ | None ->
        let key = canonical atom in
        if not (Hashtbl.mem t.pending key) then
          t.pending_order <- key :: t.pending_order;
        (* last wins: one batch carries a fact on at most one side *)
        Hashtbl.replace t.pending key
          (match side with `Insert -> Add | `Remove -> Del);
        Ok ()
    end

let take_batch t =
  let keys = List.rev t.pending_order in
  let additions =
    List.filter (fun k -> Hashtbl.find t.pending k = Add) keys
  in
  let deletions =
    List.filter (fun k -> Hashtbl.find t.pending k = Del) keys
  in
  Hashtbl.reset t.pending;
  t.pending_order <- [];
  (additions, deletions)

(* ---- commit machinery ---- *)

let run_batch t ~additions ~deletions =
  Incr_sched.update ~maint:t.maint ~domains:t.domains ~obs:t.obs t.session ~additions
    ~deletions

(* Publish epoch [target]: patch the snapshot with the run's net
   deltas, removing and adding exactly the tuples that changed, so the
   cost is O(|delta|) plus one lookup per live predicate (a batch may
   introduce a base predicate the snapshot has never seen). Client
   thread only, after the run has finished: queries run on the same
   thread, so none observes a half-patched snapshot. *)
let publish t ~(report : Datalog.Incremental.report) ~target ~start_ns =
  List.iter
    (fun (name, rel) ->
      if not (Hashtbl.mem t.snapshot name) then
        Hashtbl.replace t.snapshot name
          (Datalog.Relation.create ~arity:(Datalog.Relation.arity rel)))
    (Datalog.Database.predicates t.session.db);
  let changed =
    List.fold_left
      (fun acc (c : Datalog.Incremental.pred_change) ->
        let rel = Hashtbl.find t.snapshot c.pred in
        Datalog.Incremental.iter_removed report.deltas c.pred (fun tup ->
            ignore (Datalog.Relation.remove rel tup));
        Datalog.Incremental.iter_added report.deltas c.pred (fun tup ->
            ignore (Datalog.Relation.add rel tup));
        acc + c.added + c.removed)
      0 report.changes
  in
  let r = ring t in
  let now = Obs.Ring.now_ns r in
  Obs.Ring.emit r ~kind:Obs.Event.srv_epoch ~a:t.epoch ~b:t.published_ns;
  Obs.Ring.emit_at r ~t_ns:now ~kind:Obs.Event.srv_commit ~a:target
    ~b:start_ns;
  t.published_ns <- now;
  t.epoch <- target;
  t.ncommits <- t.ncommits + 1;
  changed

let finish t ~(tt : Datalog.To_trace.t) ~run_s ~target ~start_ns ~request
    ~ops ~additions ~deletions =
  let changed = publish t ~report:tt.report ~target ~start_ns in
  t.labels <- tt.labels;
  {
    epoch = target;
    ops;
    additions;
    deletions;
    changed;
    run_s;
    latency_s = Prelude.Mclock.now () -. request;
  }

let start_async t ~request =
  let additions, deletions = take_batch t in
  let nadds = List.length additions and ndels = List.length deletions in
  let target = t.epoch + 1 in
  let r = ring t in
  Obs.Ring.emit r ~kind:Obs.Event.srv_admit ~a:(nadds + ndels) ~b:target;
  let start_ns = Obs.Ring.now_ns r in
  let outcome =
    Commit_domain.start (fun () ->
        let t0 = Prelude.Mclock.now () in
        let tt = run_batch t ~additions ~deletions in
        (tt, Prelude.Mclock.now () -. t0))
  in
  t.inflight <-
    Some
      {
        target;
        job_ops = nadds + ndels;
        job_adds = nadds;
        job_dels = ndels;
        request;
        start_ns;
        outcome;
      }

(* Collect one inflight job, publish it, and auto-start the coalesced
   follow-up if one was requested. Blocks if the job is still running. *)
let harvest t (j : job) =
  let result = Commit_domain.wait j.outcome in
  t.inflight <- None;
  (match result with
  | Ok (tt, run_s) ->
    let stats =
      finish t ~tt ~run_s ~target:j.target ~start_ns:j.start_ns
        ~request:j.request ~ops:j.job_ops ~additions:j.job_adds
        ~deletions:j.job_dels
    in
    t.completed <- t.completed @ [ stats ]
  | Error e ->
    (* the queued follow-up is dropped with the failed epoch; the
       client sees the failure on its next interaction *)
    t.commit_queued <- false;
    raise e);
  if t.commit_queued then begin
    t.commit_queued <- false;
    start_async t ~request:t.queued_request
  end

let take_completed t =
  let out = t.completed in
  t.completed <- [];
  out

let drain t =
  (match t.inflight with
  | Some j when Commit_domain.is_done j.outcome -> harvest t j
  | Some _ | None -> ());
  take_completed t

let rec await t =
  match t.inflight with
  | Some j ->
    harvest t j;
    await t
  | None ->
    if t.commit_queued then begin
      (* unreachable today (coalescing implies an inflight job), kept
         for safety: serve the request rather than dropping it *)
      t.commit_queued <- false;
      start_async t ~request:t.queued_request;
      await t
    end
    else take_completed t

let commit_async t =
  match t.inflight with
  | Some _ ->
    if not t.commit_queued then begin
      t.commit_queued <- true;
      t.queued_request <- Prelude.Mclock.now ()
    end;
    `Coalesced
  | None ->
    start_async t ~request:(Prelude.Mclock.now ());
    `Started (t.epoch + 1)

let commit t =
  let earlier = await t in
  let request = Prelude.Mclock.now () in
  let additions, deletions = take_batch t in
  let nadds = List.length additions and ndels = List.length deletions in
  let target = t.epoch + 1 in
  let r = ring t in
  Obs.Ring.emit r ~kind:Obs.Event.srv_admit ~a:(nadds + ndels) ~b:target;
  let start_ns = Obs.Ring.now_ns r in
  let t0 = Prelude.Mclock.now () in
  let tt = run_batch t ~additions ~deletions in
  let run_s = Prelude.Mclock.now () -. t0 in
  let stats =
    finish t ~tt ~run_s ~target ~start_ns ~request ~ops:(nadds + ndels)
      ~additions:nadds ~deletions:ndels
  in
  earlier @ [ stats ]

(* ---- queries ---- *)

let query t text =
  match Datalog.Parser.parse_atom text with
  | exception Datalog.Parser.Error { col; message; _ } ->
    Error (Printf.sprintf "bad pattern (column %d): %s" col message)
  | pattern -> (
    match Hashtbl.find_opt t.snapshot pattern.pred with
    | None -> Error (Printf.sprintf "unknown predicate %s" pattern.pred)
    | Some rel ->
      let arity = Datalog.Relation.arity rel in
      let args = Array.of_list pattern.args in
      let nargs = Array.length args in
      if
        Array.exists
          (function Datalog.Ast.Agg _ -> true | _ -> false)
          args
      then Error "aggregate terms are not allowed in query patterns"
      else if nargs > 0 && nargs <> arity then
        Error
          (Printf.sprintf "%s has arity %d, not %d" pattern.pred arity nargs)
      else begin
        (* nargs = 0: bare predicate, match every fact. A constant the
           symbol table has never seen matches nothing, and looking it
           up must not mint it: reads alone would grow the table. *)
        let syms = Datalog.Database.symbols t.session.db in
        let unknown = ref false in
        let const_code =
          Array.map
            (function
              | Datalog.Ast.Const c ->
                let code = Datalog.Symbol.find syms c in
                if code = None then unknown := true;
                code
              | Datalog.Ast.Var _ | Datalog.Ast.Agg _ -> None)
            args
        in
        (* positions sharing a named variable must agree; [_] never
           constrains *)
        let groups = Hashtbl.create 4 in
        Array.iteri
          (fun i term ->
            match term with
            | Datalog.Ast.Var v when v <> "_" ->
              Hashtbl.replace groups v
                (i
                :: Option.value (Hashtbl.find_opt groups v) ~default:[])
            | _ -> ())
          args;
        let matches (tup : Datalog.Relation.tuple) =
          let ok = ref true in
          Array.iteri
            (fun i code ->
              match code with
              | Some code -> if tup.(i) <> code then ok := false
              | None -> ())
            const_code;
          if !ok then
            Hashtbl.iter
              (fun _ positions ->
                match positions with
                | p0 :: rest ->
                  List.iter
                    (fun p -> if tup.(p) <> tup.(p0) then ok := false)
                    rest
                | [] -> ())
              groups;
          !ok
        in
        let keep acc tup =
          if matches tup then
            Datalog.Database.tuple_to_atom t.session.db pattern.pred tup
            :: acc
          else acc
        in
        (* a bound constant probes the snapshot's index on its column,
           built on first use and kept current by [publish] *)
        let facts =
          if !unknown then []
          else
            match
              Array.find_mapi
                (fun col code -> Option.map (fun value -> (col, value)) code)
                const_code
            with
            | Some (col, value) ->
              Datalog.Relation.fold_matching rel ~col ~value keep []
            | None -> Datalog.Relation.fold keep [] rel
        in
        Ok (List.sort Stdlib.compare facts, t.epoch)
      end)

let export t path =
  let labels = t.labels in
  let task_label c =
    if c >= 0 && c < Array.length labels then labels.(c)
    else string_of_int c
  in
  Obs.Export.to_file ~task_label path t.obs
