module Vatomic = Prelude.Vatomic

type task_record = { task : int; start : float; finish : float; worker : int }

type result = {
  wall_makespan : float;
  tasks_executed : int;
  tasks_activated : int;
  ops : Sched.Intf.ops;
  worker_ops : Sched.Intf.ops array;
  log : task_record array;
  work_executed : float;
  steals : int;
}

(* Task lifecycle, CAS-driven:

     Inactive --activate--> Active --claim--> Running --finish--> Done

   [activate] is raced by every completing parent with a changed edge;
   the CAS guarantees exactly one wins and delivers [on_activated].
   [claim] happens when the executor accepts a task released by the
   scheduler; a failed claim CAS means the scheduler released a task
   that was never activated, was already claimed, or already ran —
   the safety violations the seed executor caught under its big lock,
   now caught without one. *)
let inactive = 0

let active = 1

let running = 2

let done_ = 3

(* Per-worker execution log as three flat arrays. The obvious
   [task_record Vec.t] costs a record block plus two boxed floats per
   task — measurable at dispatch rates of ~1M tasks/s — whereas float
   array stores are unboxed. Records are materialised once, at join. *)
type tlog = {
  mutable t_task : int array;
  mutable t_start : float array;
  mutable t_finish : float array;
  mutable t_len : int;
}

let tlog_create capacity =
  let cap = max 1024 capacity in
  { t_task = Array.make cap 0;
    t_start = Array.make cap 0.0;
    t_finish = Array.make cap 0.0;
    t_len = 0 }

let tlog_grow l =
  let cap = Array.length l.t_task in
  let nt = Array.make (2 * cap) 0
  and ns = Array.make (2 * cap) 0.0
  and nf = Array.make (2 * cap) 0.0 in
  Array.blit l.t_task 0 nt 0 l.t_len;
  Array.blit l.t_start 0 ns 0 l.t_len;
  Array.blit l.t_finish 0 nf 0 l.t_len;
  l.t_task <- nt;
  l.t_start <- ns;
  l.t_finish <- nf

let[@inline] tlog_push l task start finish =
  if l.t_len = Array.length l.t_task then tlog_grow l;
  let i = l.t_len in
  l.t_task.(i) <- task;
  l.t_start.(i) <- start;
  l.t_finish.(i) <- finish;
  l.t_len <- i + 1

(* Long-lived worker domains. A [d]-domain run executes worker 0 on the
   caller and workers 1..d-1 on an idle [d]-crew lent from this pool
   and returned after the run, so back-to-back runs spawn no
   domains. *)
let worker_crews = Crew.pool ()

let run ?(domains = 4) ?(work_unit = 1e-4) ?(batch = 64) ?run_task
    ?(obs = Obs.Trace.disabled) ~sched (trace : Workload.Trace.t) =
  if domains < 1 then invalid_arg "Executor.run: need at least one domain";
  if batch < 1 then invalid_arg "Executor.run: need a positive batch";
  let g = trace.Workload.Trace.graph in
  let n = Dag.Graph.node_count g in
  (* a real task body replaces the simulated duration entirely; spin
     calibration would only waste startup time *)
  let timed = work_unit > 0.0 && Option.is_none run_task in
  if timed then Spinwork.calibrate ();
  (* per-worker observability rings: [Ring.null] (emit = one branch)
     when tracing is off, so every instrumentation site below stays
     unconditional on the hot path *)
  let rings = Array.init domains (Obs.Trace.ring obs) in
  let psched = Sched.Protected.make ~rings ~workers:domains sched g in
  (* flat atomic status array: one cache line touch per transition
     instead of a pointer chase into a boxed [Atomic.t] per task.
     Ordering: loads acquire, final-state stores release, lifecycle
     CASes SC — see the transition comments below and the stub header.
     Routed through Vatomic so the analysis build can interleave the
     claim/activate races deterministically. *)
  let status = Vatomic.Int_array.make n in
  (* [activated]: SC counter; must be incremented before the winning
     activation is delivered to the scheduler so [terminated] can never
     see completed > activated (see [terminated]) *)
  let activated = Vatomic.make 0 in
  (* [failure]: one-shot publication; the CAS in [fail] is SC, readers
     only need the acquire of [get] to see the message contents *)
  let failure = Vatomic.make None in
  (* Parking lot: an eventcount plus one mutex/condvar pair used only
     for sleeping. Any publication of work increments [events] first;
     an idle worker snapshots [events] before its last search and only
     sleeps if no event intervened, so wakeups cannot be lost. Wakers
     signal exactly as many workers as they have spare cores for
     (broadcast only on termination or failure) — no thundering herd,
     and no churn when the host is oversubscribed. *)
  (* [events]/[parked]: both must be SC — the park/wake protocol's
     correctness argument (in [park] below) is a classic store-buffering
     pattern: waker writes events then reads parked, parker writes
     parked then reads events; with anything weaker than SC both could
     read stale values and a wakeup would be lost. This is the pair the
     analysis build's park/wake scenario exercises. *)
  let events = Vatomic.make 0 in
  let parked = Vatomic.make 0 in
  let pmutex = Mutex.create () in
  let pcond = Condition.create () in
  let cores = Domain.recommended_domain_count () in
  (* How many sleeping workers a core could actually run right now.
     Waking beyond this just burns context switches: on a fully loaded
     (or single-core) host the woken worker preempts the one holding
     the work. Racy reads are fine — this gates an optimisation, never
     progress (an unwoken parker is woken at the next event or at
     termination, and any non-parked worker drains the scheduler by
     itself). *)
  let wake_budget () =
    let sleeping = Vatomic.get parked in
    if sleeping = 0 then 0
    else
      let active_workers = domains - sleeping in
      if active_workers >= cores then 0 else min sleeping (cores - active_workers)
  in
  let wake k =
    if k > 0 && Vatomic.get parked > 0 then begin
      Mutex.lock pmutex;
      let p = Vatomic.get parked in
      if p > 0 then
        if k >= p then Condition.broadcast pcond
        else
          for _ = 1 to k do
            Condition.signal pcond
          done;
      Mutex.unlock pmutex
    end
  in
  let wake_all () =
    Vatomic.incr events;
    Mutex.lock pmutex;
    Condition.broadcast pcond;
    Mutex.unlock pmutex
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        ignore (Vatomic.compare_and_set failure None (Some msg));
        wake_all ())
      fmt
  in
  let park ring e =
    let t0 =
      if Obs.Ring.enabled ring then Prelude.Mclock.now () else 0.0
    in
    Mutex.lock pmutex;
    (* order matters: register as parked *before* re-checking the
       eventcount. A waker increments [events] before reading [parked];
       with both atomics sequentially consistent, either we see its
       event here and skip the sleep, or it sees our registration and
       signals — a lost wakeup would need both reads to miss. *)
    Vatomic.incr parked;
    while Vatomic.get events = e do
      Condition.wait pcond pmutex
    done;
    Vatomic.decr parked;
    Mutex.unlock pmutex;
    if Obs.Ring.enabled ring then
      Obs.Ring.emit ring ~kind:Obs.Event.park ~a:0 ~b:(Obs.Ring.ns_of ring t0)
  in
  (* [completed] is incremented inside the scheduler critical section
     (after the batch's activations were both counted in [activated]
     and delivered), so completed <= activated always, and equality
     means every activated task has fully completed: the termination
     test. Read completed first — activated can only have grown since,
     so a stale equal pair still implies a true equal pair. *)
  let terminated () =
    let c = Sched.Protected.completed psched in
    c = Vatomic.get activated
  in
  (* initial activations: no concurrency yet *)
  Array.iter
    (fun u ->
      Vatomic.Int_array.set status u active;
      Vatomic.incr activated)
    trace.Workload.Trace.initial;
  Sched.Protected.activate psched ~wid:0 trace.Workload.Trace.initial;
  let bufs = Array.init domains (fun _ -> Wbuf.create batch) in
  let cap = Wbuf.capacity bufs.(0) in
  (* size the per-worker logs so steady-state pushes never grow the
     arrays mid-dispatch: total log entries across workers is bounded
     by the node count *)
  let logs = Array.init domains (fun _ -> tlog_create ((n / domains) + 1)) in
  let works = Array.make domains 0.0 in
  let steal_counts = Array.make domains 0 in
  let edge_changed = trace.Workload.Trace.edge_changed in
  (* per-task work cost, flattened once: [Trace.work] chases a shape
     block per call, which is a cache miss on big traces *)
  let workv = Array.init n (fun u -> Workload.Trace.work trace u) in
  let soff, sdst, seid = Dag.Graph.csr_succ g in
  (* Start barrier: every worker is awake and set up before the epoch
     is taken by the last arriver, so the measured makespan covers
     dispatch, not waking the crew. The mutex hand-off publishes
     [epoch_ref] to all workers. *)
  let arrived = ref 0 in
  let epoch_ref = ref 0.0 in
  let bmutex = Mutex.create () in
  let bcond = Condition.create () in
  let barrier () =
    Mutex.lock bmutex;
    incr arrived;
    if !arrived = domains then begin
      epoch_ref := Prelude.Mclock.now ();
      Condition.broadcast bcond
    end
    else
      while !arrived < domains do
        Condition.wait bcond bmutex
      done;
    Mutex.unlock bmutex
  in
  let worker wid =
    let buf = bufs.(wid) in
    let tmp = Array.make cap 0 in
    let scratch = Array.make cap 0 in
    (* pending completions, flushed to the scheduler in one batched
       critical section: completed tasks in order, their newly
       activated children flattened, and a per-task child count. Flat
       arrays: [comp_tasks]/[counts] are bounded by the batch size,
       [acts] grows (a task can activate any number of children). *)
    let comp_tasks = Array.make cap 0 in
    let counts = Array.make cap 0 in
    let ncomp = ref 0 in
    let acts = ref (Array.make (4 * cap) 0) in
    let nacts = ref 0 in
    let push_act dst =
      if !nacts = Array.length !acts then begin
        let bigger = Array.make (2 * !nacts) 0 in
        Array.blit !acts 0 bigger 0 !nacts;
        acts := bigger
      end;
      !acts.(!nacts) <- dst;
      incr nacts
    in
    (* spinning before parking only pays when a core is actually free
       to produce work meanwhile; oversubscribed, it steals the CPU
       from the worker it is waiting on — park immediately instead *)
    let backoff =
      Prelude.Backoff.create ~limit:(if domains > cores then 0 else 10) ()
    in
    let log = logs.(wid) in
    let ring = Array.unsafe_get rings wid in
    let traced = Obs.Ring.enabled ring in
    barrier ();
    let epoch = !epoch_ref in
    (* One clock read per task: a task's recorded start is the previous
       time stamp on this worker — the preceding task's finish, or the
       moment its batch was obtained from the scheduler (refill/steal),
       whichever came last. This understates the true start by at most
       the executor's own per-task overhead, and it can never violate
       precedence in the log: a task only enters this worker's ring at
       a refill (or steal) that happened after every activating
       parent's completion was flushed, and that refill re-stamps the
       clock — so recorded start >= refill stamp >= parent's recorded
       finish. Kept in a one-element float array: a [float ref] boxes
       every store (3 words per task), and on a saturated host that
       allocation rate forces minor collections whose stop-the-world
       handshake must wake every parked domain. *)
    let last_stamp = Array.make 1 0.0 in
    let rec try_activate dst =
      (* acquire load: pairs with the winner's SC CAS / the release
         store of [done_] so the failure branch reads a settled state *)
      match Vatomic.Int_array.get status dst with
      | s when s = inactive ->
        (* SC CAS: the activation race — every completing parent with a
           changed edge attempts it, exactly one transition wins *)
        if Vatomic.Int_array.cas status dst inactive active then begin
          Vatomic.incr activated;
          push_act dst
        end
        else try_activate dst
      | s when s = active -> ()
      | _ -> fail "task %d activated after it ran" dst
    in
    let flush () =
      if !ncomp > 0 then begin
        let nact = !nacts in
        Sched.Protected.complete_batch psched ~wid ~tasks:comp_tasks ~ntasks:!ncomp
          ~acts:!acts ~counts;
        ncomp := 0;
        nacts := 0;
        if terminated () then wake_all ()
        else begin
          (* even an activation-free completion can unlock scheduler-
             gated tasks (e.g. the next level), so always publish the
             event; only signal sleepers when there are activations to
             hand them and spare cores to run them *)
          Vatomic.incr events;
          if nact > 0 then begin
            let k = min nact (wake_budget ()) in
            wake k;
            if traced && k > 0 then
              Obs.Ring.emit ring ~kind:Obs.Event.wake ~a:k ~b:0
          end
        end
      end
    in
    let execute_task u =
      let start = Array.unsafe_get last_stamp 0 in
      let work = Array.unsafe_get workv u in
      (match run_task with
      | None -> if timed then Spinwork.spin (work *. work_unit)
      | Some f -> (
        (* a raising body must not abandon the completion protocol:
           route it through [fail] (every worker exits, Domain.join
           returns) and finish this task normally — leaving it
           unfinished would park peers forever on a dead run *)
        try f ~wid u with e -> fail "task %d raised: %s" u (Printexc.to_string e)));
      let finish = Prelude.Mclock.now () -. epoch in
      Array.unsafe_set last_stamp 0 finish;
      tlog_push log u start finish;
      (* reuse the per-task stamps already taken for the log; [start]
         and [finish] are relative to the barrier epoch *)
      if traced then
        Obs.Ring.emit_at ring
          ~t_ns:(Obs.Ring.ns_of ring (epoch +. finish))
          ~kind:Obs.Event.task ~a:u
          ~b:(Obs.Ring.ns_of ring (epoch +. start));
      works.(wid) <- works.(wid) +. work;
      (* release store: final-state publication; any parent that later
         reads [done_] in [try_activate] must also see this task's side
         effects (additionally ordered by the scheduler lock at flush) *)
      Vatomic.Int_array.set status u done_;
      let before = !nacts in
      let lo = Array.unsafe_get soff u in
      let hi = Array.unsafe_get soff (u + 1) - 1 in
      for j = lo to hi do
        if Array.unsafe_get edge_changed (Array.unsafe_get seid j) then
          try_activate (Array.unsafe_get sdst j)
      done;
      let i = !ncomp in
      comp_tasks.(i) <- u;
      counts.(i) <- !nacts - before;
      ncomp := i + 1;
      (* flush eagerly when this completion activated someone a parked
         peer could pick up on a spare core, or when the batch is full;
         otherwise batches drain at the next refill. On a saturated
         host eager flushing would wake workers that have nowhere to
         run and halve the batch size for nothing. *)
      if !ncomp >= cap || (!nacts > before && wake_budget () > 0) then flush ()
    in
    (* claim a scheduler-released task; a failed CAS is a safety
       violation by the scheduler. SC CAS: the claim must be totally
       ordered against the activation CAS and against other claim
       attempts, so a double release shows up as exactly one failed
       CAS rather than a silent double run. *)
    let claim u =
      if not (Vatomic.Int_array.cas status u active running) then
        fail "scheduler released task %d unsafely" u
    in
    let try_steal () =
      let got = ref 0 in
      let i = ref 1 in
      while !got = 0 && !i < domains do
        let victim = bufs.((wid + !i) mod domains) in
        if Wbuf.length victim > 0 then got := Wbuf.steal_into victim scratch;
        incr i
      done;
      !got
    in
    (* drain the private ring with no shared-state checks at all: every
       task in it is already claimed, and failure/termination are
       re-examined once the ring is empty (a bounded delay). Tasks come
       out one per lock round-trip, so everything not yet running stays
       in the ring where an idle peer can steal it: one refill often
       holds a whole level, and popping it in bulk would leave the
       level to this worker while its peer parks. The spinlock costs
       tens of nanoseconds per task. *)
    let rec drain () =
      let u = Wbuf.pop buf in
      if u >= 0 then begin
        execute_task u;
        drain ()
      end
    in
    (* Workers beyond the core count park before their first search:
       on an oversubscribed host they could only time-slice against the
       workers already running, adding context switches and GC
       synchronization for zero extra throughput. They are normal
       parkers — woken the moment a flush finds both an activation and
       a spare core for them ([wake_budget]), or at termination.
       Worker 0 never parks here (cores >= 1), so progress and the
       termination broadcast are unaffected. The eventcount snapshot
       must precede the termination test: on a tiny trace worker 0 can
       finish everything before this worker even gets scheduled, and a
       park that missed that final broadcast would sleep forever —
       with the snapshot taken first, the terminating wake_all either
       happens-before the test (seen here) or bumps [events] after the
       snapshot (defeats the park). *)
    if wid >= cores then begin
      let e = Vatomic.get events in
      if (not (terminated ())) && Vatomic.get failure = None then park ring e
    end;
    let rec loop () =
      match Vatomic.get failure with
      | Some _ -> ()
      | None ->
        drain ();
        (* ring is dry: retire pending completions before asking the
           scheduler — they may be exactly what unlocks the next batch
           (and Drained detection requires it) *)
        flush ();
        if terminated () then wake_all ()
        else begin
          (* snapshot the eventcount before the final search; any work
             published after this point bumps it and defeats the park *)
          let e = Vatomic.get events in
          let steal_t0 = if traced then Prelude.Mclock.now () else 0.0 in
          let stolen = try_steal () in
          if traced then
            Obs.Ring.emit ring ~kind:Obs.Event.steal ~a:stolen
              ~b:(Obs.Ring.ns_of ring steal_t0);
          if stolen > 0 then begin
            Prelude.Backoff.reset backoff;
            steal_counts.(wid) <- steal_counts.(wid) + stolen;
            ignore (Wbuf.push_batch buf scratch 0 stolen);
            last_stamp.(0) <- Prelude.Mclock.now () -. epoch;
            loop ()
          end
          else
            match Sched.Protected.refill psched ~wid ~into:tmp with
            | Sched.Protected.Got k ->
              Prelude.Backoff.reset backoff;
              for i = 0 to k - 1 do
                claim tmp.(i)
              done;
              ignore (Wbuf.push_batch buf tmp 0 k);
              last_stamp.(0) <- Prelude.Mclock.now () -. epoch;
              (* more work probably remains behind us in the scheduler
                 and our surplus is stealable: if a core is free for a
                 parked peer, wake one, which wakes another if it also
                 finds a batch — exponential wake diffusion *)
              if k > 1 && wake_budget () > 0 then begin
                Vatomic.incr events;
                wake 1;
                if traced then
                  Obs.Ring.emit ring ~kind:Obs.Event.wake ~a:1 ~b:0
              end;
              loop ()
            | Sched.Protected.Pending ->
              if Prelude.Backoff.is_exhausted backoff then begin
                (* re-check [failure] after the snapshot, as the
                   initial park does: a [fail] that landed between the
                   loop-top check and the snapshot bumped [events]
                   before it, so its wake_all would not defeat this
                   park — and a raising scheduler callback keeps
                   [refill] answering Pending forever. [fail] sets
                   [failure] before it bumps [events], so a failure
                   after the snapshot is either seen here or defeats
                   the park. *)
                if Vatomic.get failure = None then park ring e;
                Prelude.Backoff.reset backoff
              end
              else Prelude.Backoff.once backoff;
              loop ()
            | Sched.Protected.Drained ->
              (* nothing ready, nothing in flight: either done, or the
                 scheduler gave up with activated tasks remaining *)
              if terminated () then wake_all ()
              else
                fail
                  "scheduler stalled: %d of %d activated tasks incomplete, none \
                   running"
                  (Vatomic.get activated - Sched.Protected.completed psched)
                  (Vatomic.get activated)
        end
    in
    loop ()
  in
  (* A simulated-duration run enters dispatch with an empty minor heap:
     its setup (scheduler precompute, work table) on a large trace
     leaves megabytes of garbage behind, and a minor collection once the
     workers run is a stop-the-world event that must interrupt every
     one of them — collect while the crew is still parked instead. A
     [run_task] run is one maintenance commit whose setup garbage is
     small; there the forced collection would itself be a
     stop-the-world handshake on every commit. *)
  if Option.is_none run_task then Gc.minor ();
  (* a worker that raises (a scheduler bug, not a task body: those go
     through [fail] already) must not leave its peers parked forever —
     the crew's barrier waits for all of them *)
  let worker wid =
    try worker wid
    with e ->
      fail "worker %d raised: %s" wid (Printexc.to_string e);
      raise e
  in
  if domains = 1 then worker 0
  else Crew.with_crew worker_crews ~size:domains (fun crew -> Crew.run crew worker);
  (match Vatomic.get failure with
  | Some msg -> failwith ("Executor: " ^ msg)
  | None -> ());
  let total = Array.fold_left (fun acc l -> acc + l.t_len) 0 logs in
  let log = Array.make total { task = 0; start = 0.0; finish = 0.0; worker = 0 } in
  let pos = ref 0 in
  Array.iteri
    (fun w l ->
      for i = 0 to l.t_len - 1 do
        log.(!pos) <-
          { task = l.t_task.(i);
            start = l.t_start.(i);
            finish = l.t_finish.(i);
            worker = w };
        incr pos
      done)
    logs;
  Array.sort (fun a b -> Float.compare a.finish b.finish) log;
  let wall_makespan = Array.fold_left (fun acc r -> Float.max acc r.finish) 0.0 log in
  {
    wall_makespan;
    tasks_executed = Sched.Protected.completed psched;
    tasks_activated = Vatomic.get activated;
    ops = Sched.Protected.ops psched;
    worker_ops = Sched.Protected.worker_ops psched;
    log;
    work_executed = Array.fold_left ( +. ) 0.0 works;
    steals = Array.fold_left ( + ) 0 steal_counts;
  }

let check trace result =
  let entries =
    Array.map
      (fun r -> { Simulator.Engine.task = r.task; start = r.start; finish = r.finish })
      result.log
  in
  Simulator.Validate.check ~check_spans:false trace entries
