(* Serve-path benchmark.

   One driver thread replays a seeded update stream through
   Server.Engine, the core of [dms serve]: it submits each batch's
   operations, commits them, and issues point queries against the
   published snapshots. Every run is then replayed step by step on a
   one-shot Incr_sched.update twin, outside the timed region, which
   checks the final database and every query answer.

   Usage (see run.py, which builds this executable first):
     main.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics of one untraced replay.
   --trace 1 runs that untraced replay, then a second replay with
   Obs.Trace rings passed to Server.Engine.create, and prints the
   per-layer metrics. Layers are timed only around calls into their
   public functions, or read from the events the program already
   records on its rings; nothing here adds tracing inside the program.
   METRICS.md beside this file gives every metric's unit, direction,
   and the end-to-end metric it should move on which workload.

   The last line of standard output is one JSON object: correct,
   attempted, failed, metrics. The line before it is a JSON report
   with the configuration, the exact work counters, the commit
   latency breakdown and the workload verdict. *)

module Us = Workload.Synthetic.Update_stream
module Inc = Datalog.Incremental

let now () = Prelude.Mclock.now ()

(* ---------------------------------------------------------------- *)
(* Workloads                                                         *)
(* ---------------------------------------------------------------- *)

type loop =
  | Open of float
      (** batches offered per second, on a fixed schedule whatever
          the server does *)
  | Closed of float
      (** one client: it sends a batch, queries once it is published,
          and sends the next batch when the answer returns. The figure
          only sizes the stream (batches per second of --seconds); the
          run lasts as long as the server takes. *)

type shape =
  | Tc of Us.params  (** one transitive closure [path] over [edge] *)
  | Wide of { groups : int; group : Us.params }
      (** independent closures [path<g>] over [edge<g>]; each commit
          advances a seeded half of the groups by one step *)

type workload = {
  name : string;
  shape : shape;
  maint : Inc.maint;
  domains : int;
  async : bool;  (** commit_async/drain instead of commit *)
  loop : loop;
  queries_per_s : float option;
      (** a separate open-loop query stream; [None] is one query per
          commit *)
  ring_per_commit : int;
      (** traced ring records reserved per commit; nothing may drop *)
}

(* Why each workload exists, and the figures that sized it, are in
   BENCHMARK.json and METRICS.md. [batches] and [seed] of the stream
   parameters are set per run from --seconds and --seed. *)
let tc_store =
  {
    Us.nodes = 120;
    span = 10;
    base_edges = 700;
    batches = 0;
    batch_ops = 6;
    delete_fraction = 0.5;
    seed = 0;
  }

let workloads =
  [
    (* a store large next to each delta: publish and counting's phases
       block every commit; 60/s keeps the driver about half busy *)
    {
      name = "tc-copy";
      shape = Tc tc_store;
      maint = Inc.Counting;
      domains = 1;
      async = false;
      loop = Open 60.0;
      queries_per_s = None;
      ring_per_commit = 32;
    };
    (* many independent components: the executor, the scheduler, DRed
       and the per-commit fixed cost do the work; 24 groups keep 2,000
       commits and their twin inside a run *)
    {
      name = "wide-par";
      shape =
        Wide
          {
            groups = 24;
            group =
              {
                Us.nodes = 20;
                span = 4;
                base_edges = 40;
                batches = 0;
                batch_ops = 2;
                delete_fraction = 0.5;
                seed = 0;
              };
          };
      maint = Inc.Dred;
      domains = 2;
      async = false;
      loop = Closed 80.0;
      queries_per_s = None;
      ring_per_commit = 128;
    };
    (* reads beside async commits; at 50/s and above the driver fell
       behind whenever the host slowed *)
    {
      name = "tc-read";
      shape = Tc tc_store;
      maint = Inc.Counting;
      domains = 1;
      async = true;
      loop = Open 40.0;
      queries_per_s = Some 400.0;
      ring_per_commit = 32;
    };
  ]

let maint_name = function
  | Inc.Dred -> "dred"
  | Inc.Counting -> "counting"
  | Inc.Auto -> "auto"

(* Threads that can be busy at once: the driver (blocked while a sync
   commit's executor works) plus the background commit domain. *)
let busy_threads wl = if wl.async then 1 + wl.domains else max 1 wl.domains

(* ---------------------------------------------------------------- *)
(* Inputs                                                            *)
(* ---------------------------------------------------------------- *)

type query = { text : string; pred : string; const : string }

type inputs = {
  src : string;  (** base facts and rules *)
  base_facts : int;
  batches : (string list * string list) array;
  queries : query array;
}

let tc_rules ~path ~edge =
  Printf.sprintf "%s(X,Y) :- %s(X,Y).\n%s(X,Z) :- %s(X,Y), %s(Y,Z).\n" path
    edge path path edge

let point_query rng ~pred ~nodes =
  let const = Printf.sprintf "v%d" (Prelude.Rng.int rng nodes) in
  { text = Printf.sprintf "%s(%S,X)" pred const; pred; const }

let commit_rate wl = match wl.loop with Open r | Closed r -> r

let generate wl ~seed ~seconds =
  let nb = max 1 (int_of_float (float_of_int seconds *. commit_rate wl)) in
  let nq =
    match wl.queries_per_s with
    | Some q -> max 1 (int_of_float (float_of_int seconds *. q))
    | None -> nb
  in
  let rng = Prelude.Rng.create seed in
  let facts base = String.concat "" (List.map (fun f -> f ^ ".\n") base) in
  match wl.shape with
  | Tc p ->
    let s = Us.generate { p with batches = nb; seed } in
    {
      src = facts s.base ^ tc_rules ~path:"path" ~edge:"edge";
      base_facts = List.length s.base;
      batches = Array.of_list s.steps;
      queries =
        Array.init nq (fun _ -> point_query rng ~pred:"path" ~nodes:p.nodes);
    }
  | Wide { groups; group } ->
    let streams =
      Array.init groups (fun g ->
          Us.generate
            ~pred:(Printf.sprintf "edge%d" g)
            { group with batches = nb; seed = (seed * 1009) + g })
    in
    let cursors = Array.map Us.cursor streams in
    let batches =
      Array.init nb (fun _ ->
          let chosen =
            List.filter
              (fun _ -> Prelude.Rng.bool rng)
              (List.init groups Fun.id)
          in
          let chosen =
            if chosen = [] then [ Prelude.Rng.int rng groups ] else chosen
          in
          List.fold_left
            (fun (adds, dels) g ->
              match Us.next cursors.(g) with
              | Some (a, d) -> (adds @ a, dels @ d)
              | None -> (adds, dels))
            ([], []) chosen)
    in
    {
      src =
        String.concat ""
          (List.init groups (fun g ->
               facts streams.(g).base
               ^ tc_rules
                   ~path:(Printf.sprintf "path%d" g)
                   ~edge:(Printf.sprintf "edge%d" g)));
      base_facts =
        Array.fold_left (fun n (s : Us.t) -> n + List.length s.base) 0 streams;
      batches;
      queries =
        Array.init nq (fun _ ->
            point_query rng
              ~pred:(Printf.sprintf "path%d" (Prelude.Rng.int rng groups))
              ~nodes:group.nodes);
    }

(* ---------------------------------------------------------------- *)
(* Set-up: materialize, prime counts, publish epoch 0                *)
(* ---------------------------------------------------------------- *)

let materialize wl inputs =
  let session = Incr_sched.materialize inputs.src in
  if wl.maint = Inc.Counting then
    ignore (Inc.prime session.db session.program : int);
  session

let setup ?obs wl inputs =
  let t0 = now () in
  let session = materialize wl inputs in
  let engine =
    Server.Engine.create ~maint:wl.maint ~domains:wl.domains ?obs session
  in
  (engine, now () -. t0)

(* ---------------------------------------------------------------- *)
(* Driver                                                            *)
(* ---------------------------------------------------------------- *)

(* Order-sensitive digest of a sorted answer, so the twin check does
   not keep every answer alive. *)
let fingerprint (facts : Datalog.Ast.atom list) =
  List.fold_left
    (fun h (a : Datalog.Ast.atom) ->
      List.fold_left
        (fun h t -> (h * 31) + Hashtbl.hash (t : Datalog.Ast.term))
        ((h * 31) + Hashtbl.hash a.pred)
        a.args)
    (List.length facts) facts

(* One replay. Batch and query arrays are indexed by stream position;
   epoch arrays by the epoch number the server published. All times
   are Mclock seconds. *)
type run = {
  engine : Server.Engine.t;
  b_due : float array;  (** when the batch was due (open) or sent (closed) *)
  b_start : float array;  (** the driver began submitting it *)
  b_sub : float array;  (** its last operation was admitted *)
  b_pub : float array;  (** the epoch holding it was published *)
  b_epoch : int array;
  q_due : float array;
  q_start : float array;
  q_end : float array;
  q_epoch : int array;  (** -1: the query failed *)
  q_fp : int array;
  q_count : int array;
  q_inflight : bool array;  (** a commit was running when it was issued *)
  e_cover : int array;  (** batches 0 .. cover-1 are in this epoch *)
  e_request : float array;
      (** the commit request an async epoch serves; its publish time is
          this plus [latency_s] *)
  e_run : float array;  (** commit_stats.run_s *)
  mutable epochs : int;  (** last epoch published *)
  mutable ops : int;  (** operations admitted *)
  mutable attempted : int;
  mutable failed : int;
  mutable error : string option;  (** a commit raised; the run stopped *)
  mutable admit_s : float;  (** summed Server.Engine.submit call time *)
  mutable late_max : float;
  mutable backlog_max : int;
  mutable t0 : float;
  mutable t_end : float;
  mutable gc0 : Gc.stat;
  mutable gc1 : Gc.stat;
}

let drive wl inputs engine =
  let nb = Array.length inputs.batches
  and nq = Array.length inputs.queries in
  let fa n = Array.make n Float.infinity in
  let r =
    {
      engine;
      b_due = fa nb;
      b_start = fa nb;
      b_sub = fa nb;
      b_pub = fa nb;
      b_epoch = Array.make nb (-1);
      q_due = fa nq;
      q_start = fa nq;
      q_end = fa nq;
      q_epoch = Array.make nq (-1);
      q_fp = Array.make nq 0;
      q_count = Array.make nq 0;
      q_inflight = Array.make nq false;
      e_cover = Array.init (nb + 1) (fun e -> if e = 0 then 0 else -1);
      e_request = fa (nb + 1);
      e_run = Array.make (nb + 1) 0.0;
      epochs = 0;
      ops = 0;
      attempted = 0;
      failed = 0;
      error = None;
      admit_s = 0.0;
      late_max = 0.0;
      backlog_max = 0;
      t0 = 0.0;
      t_end = 0.0;
      gc0 = Gc.quick_stat ();
      gc1 = Gc.quick_stat ();
    }
  in
  let submitted = ref 0 and published = ref 0 in
  (* request time of the first coalesced commit_async not yet started *)
  let pending_req = ref Float.nan in
  (* a run the engine started (by commit_async, or as the coalesced
     follow-up inside drain) holds every batch submitted so far *)
  let register hint =
    if Server.Engine.inflight engine then begin
      let e = Server.Engine.epoch engine + 1 in
      if r.e_cover.(e) < 0 then begin
        r.e_cover.(e) <- !submitted;
        r.e_request.(e) <-
          (if Float.is_nan !pending_req then hint else !pending_req);
        pending_req := Float.nan
      end
    end
  in
  let published_at stats ~at =
    List.iter
      (fun (s : Server.Engine.commit_stats) ->
        let e = s.epoch in
        let pub =
          match at with Some t -> t | None -> r.e_request.(e) +. s.latency_s
        in
        r.e_run.(e) <- s.run_s;
        r.epochs <- e;
        for i = !published to r.e_cover.(e) - 1 do
          r.b_pub.(i) <- pub;
          r.b_epoch.(i) <- e
        done;
        published := max !published r.e_cover.(e))
      stats
  in
  let drain () =
    if wl.async then begin
      published_at (Server.Engine.drain engine) ~at:None;
      register (now ())
    end
  in
  (* spin until the due time, publishing finished background commits
     as a client thread polling for replies would; a sleeping driver
     wakes late by a varying amount on a virtualized host *)
  let wait_until due =
    drain ();
    while now () < due do
      drain ()
    done
  in
  let nextb = ref 0 and nextq = ref 0 in
  let start_op due =
    let t = now () in
    r.late_max <- Float.max r.late_max (t -. due);
    let due_by arr from n =
      let k = ref from in
      while !k < n && arr.(!k) <= t do
        incr k
      done;
      !k - from
    in
    r.backlog_max <-
      max r.backlog_max (due_by r.b_due !nextb nb + due_by r.q_due !nextq nq);
    t
  in
  let submit side fact =
    r.attempted <- r.attempted + 1;
    match Server.Engine.submit engine side fact with
    | Ok () -> r.ops <- r.ops + 1
    | Error _ -> r.failed <- r.failed + 1
  in
  let run_batch i =
    let due = r.b_due.(i) in
    wait_until due;
    let t = start_op due in
    r.b_start.(i) <- t;
    let adds, dels = inputs.batches.(i) in
    List.iter (submit `Insert) adds;
    List.iter (submit `Remove) dels;
    let tc = now () in
    r.b_sub.(i) <- tc;
    r.admit_s <- r.admit_s +. (tc -. t);
    incr submitted;
    incr nextb;
    r.attempted <- r.attempted + 1;
    if wl.async then begin
      (match Server.Engine.commit_async engine with
      | `Started _ -> register tc
      | `Coalesced -> if Float.is_nan !pending_req then pending_req := tc);
      drain ()
    end
    else begin
      r.e_cover.(Server.Engine.epoch engine + 1) <- !submitted;
      let stats = Server.Engine.commit engine in
      published_at stats ~at:(Some (now ()))
    end;
    match wl.loop with
    | Closed _ -> r.q_due.(i) <- r.b_pub.(i)
    | Open _ -> ()
  in
  let run_query j =
    let due = r.q_due.(j) in
    wait_until due;
    let t = start_op due in
    r.q_start.(j) <- t;
    r.q_inflight.(j) <- Server.Engine.inflight engine;
    let q = inputs.queries.(j) in
    let res = Server.Engine.query engine q.text in
    r.q_end.(j) <- now ();
    r.attempted <- r.attempted + 1;
    (match res with
    | Ok (facts, ep) ->
      r.q_epoch.(j) <- ep;
      r.q_fp.(j) <- fingerprint facts;
      r.q_count.(j) <- List.length facts
    | Error _ -> r.failed <- r.failed + 1);
    incr nextq;
    match wl.loop with
    | Closed _ when j + 1 < nb -> r.b_due.(j + 1) <- r.q_end.(j)
    | Closed _ | Open _ -> ()
  in
  Gc.compact ();
  r.gc0 <- Gc.quick_stat ();
  r.t0 <- now () +. 0.002;
  (match wl.loop with
  | Open rate ->
    let qrate = Option.value wl.queries_per_s ~default:rate in
    Array.iteri
      (fun i _ -> r.b_due.(i) <- r.t0 +. (float_of_int i /. rate))
      r.b_due;
    Array.iteri
      (fun j _ -> r.q_due.(j) <- r.t0 +. (float_of_int j /. qrate))
      r.q_due
  | Closed _ -> r.b_due.(0) <- r.t0);
  (try
     while !nextb < nb || !nextq < nq do
       if !nextb < nb && (!nextq >= nq || r.b_due.(!nextb) < r.q_due.(!nextq))
       then run_batch !nextb
       else run_query !nextq
     done;
     while Server.Engine.inflight engine do
       drain ()
     done
   with e ->
     r.failed <- r.failed + 1;
     r.error <- Some (Printexc.to_string e));
  r.t_end <- now ();
  r.gc1 <- Gc.quick_stat ();
  r

(* ---------------------------------------------------------------- *)
(* Parity: the per-step twin                                         *)
(* ---------------------------------------------------------------- *)

(* Exact work counters, from the serial per-step twin: they do not
   depend on timing, coalescing or the executor's interleaving. *)
type counters = {
  mutable examined : int;  (** activity.work, summed over steps *)
  mutable changes : int;  (** net tuples added + removed *)
  mutable copied : int;
      (** per step, cardinalities of the predicates that changed: what
          a copy-on-publish snapshot re-freezes *)
  mutable active : int;  (** components whose input changed *)
  mutable components : int;  (** components, summed over steps *)
  mutable o1_hits : int;
  mutable full_probes : int;
}

let twin_answer (s : Incr_sched.datalog_session) (q : query) =
  match Datalog.Database.find s.db q.pred with
  | None -> (fingerprint [], 0, 0)
  | Some rel ->
    let code =
      Datalog.Symbol.intern
        (Datalog.Database.symbols s.db)
        (Datalog.Ast.Sym q.const)
    in
    let facts =
      Datalog.Relation.fold_matching rel ~col:0 ~value:code
        (fun acc tup -> Datalog.Database.tuple_to_atom s.db q.pred tup :: acc)
        []
    in
    (fingerprint (List.sort Stdlib.compare facts), List.length facts,
     Datalog.Relation.cardinality rel)

(* Replays the stream on a twin and checks each run against it: every
   answered query against the twin at the step its epoch covers, and
   the final database. Returns the counters, per run the summed
   cardinality of the relations its queries scanned, and the twin. *)
let twin_check wl inputs (runs : run list) =
  let twin = materialize wl inputs in
  let nb = Array.length inputs.batches in
  let at_step = Array.make (nb + 1) [] in
  List.iteri
    (fun k (r : run) ->
      Array.iteri
        (fun j ep ->
          if ep >= 0 then
            let step = r.e_cover.(ep) in
            at_step.(step) <- (k, j) :: at_step.(step))
        r.q_epoch)
    runs;
  let runs = Array.of_list runs in
  let scanned = Array.make (Array.length runs) 0 in
  let errors = ref [] in
  let check step =
    List.iter
      (fun (k, j) ->
        let r = runs.(k) in
        let q = inputs.queries.(j) in
        let fp, n, card = twin_answer twin q in
        scanned.(k) <- scanned.(k) + card;
        if fp <> r.q_fp.(j) || n <> r.q_count.(j) then
          errors :=
            Printf.sprintf
              "query %d %s at epoch %d (step %d): %d facts, twin %d"
              j q.text r.q_epoch.(j) step r.q_count.(j) n
            :: !errors)
      at_step.(step)
  in
  check 0;
  let c =
    {
      examined = 0;
      changes = 0;
      copied = 0;
      active = 0;
      components = 0;
      o1_hits = 0;
      full_probes = 0;
    }
  in
  let obs =
    Obs.Trace.create ~capacity:(wl.ring_per_commit * nb) ~domains:1 ()
  in
  let card p =
    match Datalog.Database.find twin.db p with
    | Some rel -> Datalog.Relation.cardinality rel
    | None -> 0
  in
  Array.iteri
    (fun i (additions, deletions) ->
      let rep =
        (Incr_sched.update ~maint:wl.maint ~obs twin ~additions ~deletions)
          .report
      in
      List.iter
        (fun (a : Inc.comp_activity) ->
          c.examined <- c.examined + a.work;
          c.components <- c.components + 1;
          if a.input_changed then c.active <- c.active + 1)
        rep.activity;
      List.iter
        (fun (p : Inc.pred_change) ->
          c.changes <- c.changes + p.added + p.removed;
          c.copied <- c.copied + card p.pred)
        rep.changes;
      check (i + 1))
    inputs.batches;
  Obs.Ring.iter (Obs.Trace.ring obs 0) (fun ~kind ~t_ns:_ ~a ~b:_ ->
      if kind = Obs.Event.cnt_o1_hit then c.o1_hits <- c.o1_hits + a
      else if kind = Obs.Event.cnt_full_probe then
        c.full_probes <- c.full_probes + a);
  if Obs.Trace.dropped obs > 0 then
    errors := "twin trace ring overflowed" :: !errors;
  Array.iteri
    (fun k (r : run) ->
      if r.error = None then
        match
          Datalog.Eval.databases_agree (Server.Engine.db r.engine) twin.db
        with
        | Ok () -> ()
        | Error e ->
          errors := Printf.sprintf "run %d final database: %s" k e :: !errors)
    runs;
  (c, scanned, twin, List.rev !errors)

(* ---------------------------------------------------------------- *)
(* Statistics and output                                             *)
(* ---------------------------------------------------------------- *)

let pct xs p =
  if Array.length xs = 0 then 0.0 else Prelude.Stats.percentile xs p

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let ms s = 1000.0 *. s

(* per batch, due to published; per query, due to answered *)
let commit_lat (r : run) =
  Array.mapi (fun i pub -> ms (pub -. r.b_due.(i))) r.b_pub

let query_lat (r : run) = Array.mapi (fun j t -> ms (t -. r.q_due.(j))) r.q_end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_to_string (j : Obs.Json.t) =
  match j with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Number f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else if Float.is_finite f then Printf.sprintf "%.17g" f
    else "null"
  | String s -> json_string s
  | Array l -> "[" ^ String.concat ", " (List.map json_to_string l) ^ "]"
  | Object kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_string k ^ ": " ^ json_to_string v) kv)
    ^ "}"

let num f = Obs.Json.Number f

let jint n = Obs.Json.Number (float_of_int n)

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

(* The p99 latencies are not among these: on a shared virtualized
   host a few stalls of 30-100 ms per run decide them, and across ten
   seeds they spread by 0.4-1.7 of their median, beyond any bound a
   regression check can use. The traced run reports them as
   tail.commit_p99_ms and tail.query_p99_ms, and every run prints
   them in its report line. *)
let end_to_end (r : run) ~setup_s =
  let cl = commit_lat r and ql = query_lat r in
  [
    metric "setup_s" "s" setup_s;
    metric "commit_p50_ms" "ms" (pct cl 50.0);
    metric "query_p50_ms" "ms" (pct ql 50.0);
    metric "updates_per_s" "1/s" (ratio (float_of_int r.ops) (r.t_end -. r.t0));
    metric "peak_heap_mb" "MB"
      (float_of_int (r.gc1.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  ]

(* ---- traced replay: attribution of each commit ---- *)

type parts = {
  total : float;  (** commit latency, due to published *)
  driver_wait : float;  (** due until the driver began submitting *)
  admit : float;  (** Server.Engine.submit calls *)
  queue : float;  (** admitted until its maintenance run started *)
  run : float;  (** the maintenance run ... *)
  phases : float;  (** ... of which phase spans cover this much *)
  publish : float;  (** run end to snapshot publication *)
  remainder : float;  (** total minus the parts above *)
}

(* Epoch windows come from the engine's own srv-commit spans (start of
   the run to publication); maintenance phase spans on every ring are
   assigned to the window they start in. *)
let attribute (r : run) obs =
  let sec ns = Obs.Trace.epoch obs +. (float_of_int ns *. 1e-9) in
  let n = r.epochs + 1 in
  let w_start = Array.make n 0 and w_end = Array.make n 0 in
  let spans = Array.make n [] in
  Obs.Ring.iter (Obs.Trace.ring obs 0) (fun ~kind ~t_ns ~a ~b ->
      if kind = Obs.Event.srv_commit && a < n then begin
        w_start.(a) <- b;
        w_end.(a) <- t_ns
      end);
  let window_of t0 =
    (* last epoch whose window starts at or before t0 *)
    let lo = ref 1 and hi = ref (n - 1) and found = ref 0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if w_start.(mid) <= t0 then begin
        found := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !found
  in
  for w = 0 to Obs.Trace.domains obs - 1 do
    Obs.Ring.iter (Obs.Trace.ring obs w) (fun ~kind ~t_ns ~a:_ ~b ->
        if Obs.Event.is_dred kind || Obs.Event.is_cnt kind then begin
          let e = window_of b in
          if e > 0 && b <= w_end.(e) then spans.(e) <- (b, t_ns) :: spans.(e)
        end)
  done;
  (* wall time covered by phase spans: their union, so parallel
     phases on two workers are not counted twice *)
  let covered e =
    let sorted = List.sort compare spans.(e) in
    let total, _ =
      List.fold_left
        (fun (acc, reach) (s, t) ->
          let s = max s reach in
          if t > s then (acc + (t - s), t) else (acc, reach))
        (0, min_int) sorted
    in
    float_of_int total *. 1e-9
  in
  let phases = Array.init n (fun e -> if e = 0 then 0.0 else covered e) in
  let parts =
    Array.mapi
      (fun i due ->
        let e = r.b_epoch.(i) in
        let total = r.b_pub.(i) -. due in
        let driver_wait = r.b_start.(i) -. due in
        let admit = r.b_sub.(i) -. r.b_start.(i) in
        let queue = sec w_start.(e) -. r.b_sub.(i) in
        let run = r.e_run.(e) in
        let publish = sec w_end.(e) -. sec w_start.(e) -. run in
        {
          total;
          driver_wait;
          admit;
          queue;
          run;
          phases = phases.(e);
          publish;
          remainder =
            total -. (driver_wait +. admit +. queue +. run +. publish);
        })
      r.b_due
  in
  let epochs = Array.init (n - 1) (fun k -> k + 1) in
  let residual = Array.map (fun e -> r.e_run.(e) -. phases.(e)) epochs in
  let publish_e =
    Array.map (fun e -> sec w_end.(e) -. sec w_start.(e) -. r.e_run.(e)) epochs
  in
  (parts, Array.map (fun e -> phases.(e)) epochs, residual, publish_e)

let mean_part f parts = ms (mean (Array.map f parts))

(* empty-batch maintenance on the twin: the per-commit cost that does
   not depend on the update (stratify, plans, delta tables) *)
let fixed_cost wl (twin : Incr_sched.datalog_session) =
  let xs =
    Array.init 15 (fun _ ->
        let t0 = now () in
        ignore
          (Incr_sched.update ~maint:wl.maint ~domains:wl.domains twin
             ~additions:[] ~deletions:[]);
        now () -. t0)
  in
  ms (pct xs 50.0)

(* ---------------------------------------------------------------- *)
(* Main                                                              *)
(* ---------------------------------------------------------------- *)

(* Per-layer metrics of the traced replay [r1], beside the untraced
   replay [r0] of the same run; [add] extends the report line with the
   commit breakdown and the workload verdict. *)
let per_layer wl ~nb ~r0 ~r1 ~obs ~(c : counters) ~scanned ~twin ~add =
  let parts, phases, residual, publish_e = attribute r1 obs in
  let fixed_ms = fixed_cost wl twin in
  let s = Obs.Summary.of_trace obs in
  let commits = float_of_int (max 1 r1.epochs) in
  let per_commit x = ms x /. commits in
  let run_total = Array.fold_left ( +. ) 0.0 (Array.sub r1.e_run 1 r1.epochs) in
  let cl1 = commit_lat r1 in
  let p50_0 = pct (commit_lat r0) 50.0 in
  let ql = Array.mapi (fun j t -> t -. r1.q_start.(j)) r1.q_end in
  let answered = Array.fold_left ( + ) 0 r1.q_count in
  let part_ms =
    [
      ("total", mean_part (fun p -> p.total) parts);
      ("driver_wait", mean_part (fun p -> p.driver_wait) parts);
      ("admit", mean_part (fun p -> p.admit) parts);
      ("queue", mean_part (fun p -> p.queue) parts);
      ("run", mean_part (fun p -> p.run) parts);
      ("publish", mean_part (fun p -> p.publish) parts);
      ("remainder", mean_part (fun p -> p.remainder) parts);
    ]
  in
  let part k = List.assoc k part_ms in
  let phases_ms = ms (mean phases) in
  let count_ms =
    per_commit (s.cnt_propagate_s +. s.cnt_backward_s +. s.cnt_forward_s)
  in
  let dred_ms =
    List.map per_commit [ s.dred_delete_s; s.dred_rederive_s; s.dred_insert_s ]
  in
  let tasks =
    Array.fold_left (fun n (w : Obs.Summary.worker) -> n + w.tasks) 0 s.workers
  in
  let inflight_share =
    ratio
      (float_of_int
         (Array.fold_left (fun n b -> if b then n + 1 else n) 0 r1.q_inflight))
      (float_of_int (Array.length r1.q_inflight))
  in
  let verdict =
    match wl.name with
    | "tc-copy" ->
      let share = ratio (part "publish" +. count_ms) (part "total") in
      ( share >= 0.5 && tasks = 0,
        Printf.sprintf
          "publish and counting phases are %.0f%% of commit latency (claim: \
           >= 50%%), executor tasks %d (claim: 0)"
          (100.0 *. share) tasks )
    | "wide-par" ->
      let largest = List.fold_left Float.max (part "publish") dred_ms in
      ( fixed_ms >= largest && tasks > 0,
        Printf.sprintf
          "fixed per-commit cost %.2f ms vs largest other part %.2f ms \
           (claim: fixed is largest), executor tasks %d (claim: > 0)"
          fixed_ms largest tasks )
    | _ (* tc-read *) ->
      ( inflight_share >= 0.1,
        Printf.sprintf
          "%.0f%% of queries ran beside a commit in flight (claim: >= 10%%)"
          (100.0 *. inflight_share) )
  in
  add "breakdown_ms"
    (Obs.Json.Object
       ((List.map (fun (k, v) -> (k, num v)) part_ms)
       @ [
           ("run.phases", num (mean_part (fun p -> p.phases) parts));
           ("run.residual", num (mean_part (fun p -> p.run -. p.phases) parts));
         ]));
  add "reason_holds" (Obs.Json.Bool (fst verdict));
  add "reason" (Obs.Json.String (snd verdict));
  add "query_inflight_share" (num inflight_share);
  add "ring_records" (jint (Obs.Trace.written obs));
  let gc_d f = f r1.gc1 -. f r1.gc0 in
  [
    metric "engine.admit_us" "us"
      (1e6 *. ratio r1.admit_s (float_of_int r1.ops));
    metric "engine.ops_admitted" "count" (float_of_int r1.ops);
    metric "update.run_ms" "ms" (per_commit run_total);
    metric "update.fixed_ms" "ms" fixed_ms;
    metric "update.residual_ms" "ms" (ms (mean residual));
    metric "update.phases_ms" "ms" phases_ms;
    metric "dred.delete_ms" "ms" (per_commit s.dred_delete_s);
    metric "dred.rederive_ms" "ms" (per_commit s.dred_rederive_s);
    metric "dred.insert_ms" "ms" (per_commit s.dred_insert_s);
    metric "count.propagate_ms" "ms" (per_commit s.cnt_propagate_s);
    metric "count.backward_ms" "ms" (per_commit s.cnt_backward_s);
    metric "count.forward_ms" "ms" (per_commit s.cnt_forward_s);
    metric "count.o1_hits" "count" (float_of_int c.o1_hits);
    metric "count.full_probes" "count" (float_of_int c.full_probes);
    metric "count.o1_share" "ratio"
      (ratio (float_of_int c.o1_hits)
         (float_of_int (c.o1_hits + c.full_probes)));
    metric "maint.tuples_examined" "count" (float_of_int c.examined);
    metric "maint.examined_per_change" "ratio"
      (ratio (float_of_int c.examined) (float_of_int c.changes));
    metric "maint.active_share" "ratio"
      (ratio (float_of_int c.active) (float_of_int c.components));
    metric "exec.busy_s" "s" s.busy_s;
    metric "exec.park_s" "s" s.park_s;
    metric "exec.steal_s" "s" s.steal_s;
    metric "exec.utilization" "ratio"
      (ratio s.busy_s (float_of_int wl.domains *. run_total));
    metric "exec.tasks" "count" (float_of_int tasks);
    metric "sched.lock_ms" "ms" (per_commit s.sched_s);
    metric "publish.p50_ms" "ms" (ms (pct publish_e 50.0));
    metric "publish.p99_ms" "ms" (ms (pct publish_e 99.0));
    metric "publish.tuples_copied" "count" (float_of_int c.copied);
    metric "query.busy_ms" "ms" (ms (mean ql));
    metric "query.scanned" "count"
      (ratio (float_of_int scanned.(1)) (float_of_int (Array.length ql)));
    metric "query.hit_ratio" "ratio"
      (ratio (float_of_int answered) (float_of_int scanned.(1)));
    metric "async.runs_per_request" "ratio"
      (ratio (float_of_int r1.epochs) (float_of_int nb));
    metric "async.wait_ms" "ms" (part "total" -. part "run");
    metric "gc.minor_words_per_commit" "words"
      (gc_d (fun g -> g.minor_words) /. commits);
    metric "gc.major_words_per_commit" "words"
      (gc_d (fun g -> g.major_words) /. commits);
    metric "gc.major_collections" "count"
      (gc_d (fun g -> float_of_int g.major_collections));
    metric "tail.commit_p99_ms" "ms" (pct (commit_lat r0) 99.0);
    metric "tail.query_p99_ms" "ms" (pct (query_lat r0) 99.0);
    metric "driver.late_ms_max" "ms" (ms r1.late_max);
    metric "driver.backlog_max" "count" (float_of_int r1.backlog_max);
    metric "obs.overhead_pct" "%"
      (100.0 *. ratio (pct cl1 50.0 -. p50_0) p50_0);
    metric "commit.mean_ms" "ms" (part "total");
    metric "commit.driver_wait_ms" "ms" (part "driver_wait");
    metric "commit.admit_ms" "ms" (part "admit");
    metric "commit.queue_ms" "ms" (part "queue");
    metric "commit.run_ms" "ms" (part "run");
    metric "commit.publish_ms" "ms" (part "publish");
    metric "commit.remainder_ms" "ms" (part "remainder");
  ]

(* Set-up is timed in bursts of this many, one before the replay, one
   after it and one after the twin check, so that a slow spell of the
   host moves one burst rather than all of them; setup_s is the median
   of the three bursts together. *)
let setup_burst = 7

let time_setups wl inputs =
  Array.init setup_burst (fun _ ->
      Gc.compact ();
      snd (setup wl inputs))

let () =
  let workload = ref "" and seed = ref 1 in
  (* the default matches run_seconds in BENCHMARK.json *)
  let seconds = ref 25 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME tc-copy | wide-par | tc-read" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the replay");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let wl =
    match
      List.find_opt (fun (w : workload) -> w.name = !workload) workloads
    with
    | Some w -> w
    | None ->
      prerr_endline
        ("unknown workload " ^ !workload ^ "; known: "
        ^ String.concat ", "
            (List.map (fun (w : workload) -> w.name) workloads));
      exit 2
  in
  let cores = Domain.recommended_domain_count () in
  if busy_threads wl > cores then begin
    Printf.eprintf "%s needs %d busy threads, this host has %d cores\n" wl.name
      (busy_threads wl) cores;
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let inputs = generate wl ~seed:!seed ~seconds:!seconds in
  let before = time_setups wl inputs in
  let r0 = drive wl inputs (fst (setup wl inputs)) in
  let traced_run =
    if traced then begin
      let obs =
        Obs.Trace.create
          ~capacity:(wl.ring_per_commit * Array.length inputs.batches)
          ~domains:wl.domains ()
      in
      let e, _ = setup ~obs wl inputs in
      Some (drive wl inputs e, obs)
    end
    else None
  in
  let runs = r0 :: (match traced_run with Some (r, _) -> [ r ] | None -> []) in
  let after_replay = time_setups wl inputs in
  let c, scanned, twin, errors = twin_check wl inputs runs in
  let setup_s =
    pct (Array.concat [ before; after_replay; time_setups wl inputs ]) 50.0
  in
  let e2e = end_to_end r0 ~setup_s in
  let errors =
    List.filter_map (fun (r : run) -> r.error) runs
    @ errors
    @
    match traced_run with
    | Some (_, obs) when Obs.Trace.dropped obs > 0 ->
      [
        Printf.sprintf "traced run dropped %d ring records"
          (Obs.Trace.dropped obs);
      ]
    | _ -> []
  in
  let attempted = List.fold_left (fun n (r : run) -> n + r.attempted) 0 runs in
  let failed = List.fold_left (fun n (r : run) -> n + r.failed) 0 runs in
  let nb = Array.length inputs.batches in
  let config =
    [
      ("workload", Obs.Json.String wl.name);
      ("seed", jint !seed);
      ("seconds", jint !seconds);
      ("host_cores", jint cores);
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("maint", Obs.Json.String (maint_name wl.maint));
      ("domains", jint wl.domains);
      ("commit", Obs.Json.String (if wl.async then "async" else "sync"));
      ( "loop",
        Obs.Json.String
          (match wl.loop with Open _ -> "open" | Closed _ -> "closed") );
      ("commits_per_s", num (commit_rate wl));
      ( "queries_per_s",
        match wl.queries_per_s with
        | Some q -> num q
        | None -> Obs.Json.String "one per commit" );
      ("batches", jint nb);
      ("queries", jint (Array.length inputs.queries));
      ("base_facts", jint inputs.base_facts);
      ( "store_facts",
        jint (Datalog.Database.total_tuples (Server.Engine.db r0.engine)) );
      ("busy_threads", jint (busy_threads wl));
    ]
  in
  let exact =
    [
      ("engine.ops_admitted", jint r0.ops);
      ("publish.tuples_copied", jint c.copied);
      ("maint.tuples_examined", jint c.examined);
      ("maint.changes", jint c.changes);
      ("count.o1_hits", jint c.o1_hits);
      ("count.full_probes", jint c.full_probes);
    ]
  in
  let report =
    ref [ ("config", Obs.Json.Object config); ("exact", Obs.Json.Object exact) ]
  in
  let add k v = report := !report @ [ (k, v) ] in
  add "errors" (Obs.Json.Array (List.map (fun e -> Obs.Json.String e) errors));
  add "untraced"
    (Obs.Json.Object
       (List.map (fun (m : metric) -> (m.name, num m.value)) e2e));
  add "tails"
    (Obs.Json.Object
       [
         ("batches", jint nb);
         ("commit_p99_ms", num (pct (commit_lat r0) 99.0));
         ("queries", jint (Array.length inputs.queries));
         ("query_p99_ms", num (pct (query_lat r0) 99.0));
       ]);
  add "driver"
    (Obs.Json.Object
       [
         ("late_ms_max", num (ms r0.late_max));
         ("backlog_max", jint r0.backlog_max);
         ("epochs", jint r0.epochs);
       ]);
  let metrics =
    match traced_run with
    | None -> e2e
    | Some (r1, obs) ->
      per_layer wl ~nb ~r0 ~r1 ~obs ~c ~scanned ~twin ~add
  in
  let correct = errors = [] in
  Printf.printf "servebench %s seed %d: %d batches, %d queries, %s\n" wl.name
    !seed nb (Array.length inputs.queries)
    (if correct then "parity ok" else "PARITY FAILED");
  List.iter (fun e -> Printf.printf "  error: %s\n" e) errors;
  List.iter
    (fun (m : metric) ->
      Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit)
    metrics;
  print_endline (json_to_string (Obs.Json.Object !report));
  print_endline
    (json_to_string
       (Obs.Json.Object
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", jint attempted);
            ("failed", jint failed);
            ( "metrics",
              Obs.Json.Object
                (List.map
                   (fun (m : metric) ->
                     ( m.name,
                       Obs.Json.Object
                         [
                           ("value", num m.value);
                           ("unit", Obs.Json.String m.unit);
                         ] ))
                   metrics) );
          ]));
  if not correct then exit 1
