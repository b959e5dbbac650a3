type t = {
  inst : Intf.instance;
  lock : Mutex.t;
  per_worker : Intf.ops array;
  (* per-worker observability rings ([Obs.Ring.null] when tracing is
     off): each critical section records one span — lock wait plus
     hold — so the *measured* scheduler overhead can be set against
     the op-count model the [ops] record implements *)
  rings : Obs.Ring.t array;
  mutable outstanding : int;
  (* [completed] is the one field read outside [lock] (the executor's
     termination test); SC counter via Vatomic so the analysis build
     can check the completed<=activated ordering argument. The batched
     bump in [complete_batch] happens inside the critical section,
     after the batch's activations were delivered. *)
  completed : int Prelude.Vatomic.t;
}

type refill = Got of int | Pending | Drained

let make ?rings ~workers (factory : Intf.factory) g =
  if workers < 1 then invalid_arg "Protected.make: need at least one worker";
  let rings =
    match rings with
    | Some r when Array.length r >= workers -> r
    | Some _ -> invalid_arg "Protected.make: rings array shorter than workers"
    | None -> Array.make workers Obs.Ring.null
  in
  {
    inst = factory.Intf.make g;
    lock = Mutex.create ();
    per_worker = Array.init workers (fun _ -> Intf.zero_ops ());
    rings;
    outstanding = 0;
    completed = Prelude.Vatomic.make 0;
  }

let name t = t.inst.Intf.name

let ops t = t.inst.Intf.ops

let worker_ops t = t.per_worker

let completed t = Prelude.Vatomic.get t.completed

(* Per-worker op attribution: snapshot the instance's cumulative
   counters entering the critical section, credit the delta to the
   calling worker on the way out. The instance record stays the single
   source of truth for the aggregate. *)
let credit t wid ~q ~s ~m ~b ~f =
  let o = t.inst.Intf.ops and w = t.per_worker.(wid) in
  w.Intf.queries <- w.Intf.queries + o.Intf.queries - q;
  w.Intf.scans <- w.Intf.scans + o.Intf.scans - s;
  w.Intf.messages <- w.Intf.messages + o.Intf.messages - m;
  w.Intf.bucket_ops <- w.Intf.bucket_ops + o.Intf.bucket_ops - b;
  w.Intf.bfs_steps <- w.Intf.bfs_steps + o.Intf.bfs_steps - f

(* [kind] tags the emitted span (refill / complete / activate). The
   two clock reads bracket the lock acquisition, so the span records
   both the wait (contention) and the hold (scheduler work); both are
   skipped entirely when the worker's ring is disabled. The emit
   itself lands after the unlock — it touches only the caller's own
   ring, never shared state. *)
let[@inline] locked t wid kind body =
  let ring = Array.unsafe_get t.rings wid in
  let traced = Obs.Ring.enabled ring in
  let t0 = if traced then Prelude.Mclock.now () else 0.0 in
  Mutex.lock t.lock;
  let t1 = if traced then Prelude.Mclock.now () else 0.0 in
  let o = t.inst.Intf.ops in
  let q = o.Intf.queries
  and s = o.Intf.scans
  and m = o.Intf.messages
  and b = o.Intf.bucket_ops
  and f = o.Intf.bfs_steps in
  (* a raising scheduler callback must not leave the lock held: the
     executor aborts the run, and every peer has to get past this lock
     to see that *)
  let result =
    match body t.inst with
    | r -> r
    | exception e ->
      Mutex.unlock t.lock;
      raise e
  in
  credit t wid ~q ~s ~m ~b ~f;
  Mutex.unlock t.lock;
  if traced then begin
    let b0 = Obs.Ring.ns_of ring t0 and b1 = Obs.Ring.ns_of ring t1 in
    Obs.Ring.emit ring ~kind ~a:(b1 - b0) ~b:b1
  end;
  result

let activate t ~wid tasks =
  locked t wid Obs.Event.sched_activate (fun inst ->
      Array.iter inst.Intf.on_activated tasks)

let memory_words t =
  Mutex.lock t.lock;
  let w = t.inst.Intf.memory_words () in
  Mutex.unlock t.lock;
  w

let refill t ~wid ~into =
  let max = Array.length into in
  let k, out =
    locked t wid Obs.Event.sched_refill (fun inst ->
        let k =
          (* prefer the scheduler's allocation-free batched path; the
             fallback pairs [next_ready] with [on_started] one task at
             a time, which is semantically identical *)
          match inst.Intf.next_ready_into with
          | Some fill -> fill into max
          | None ->
            let k = ref 0 in
            let exception Dry in
            (try
               while !k < max do
                 match inst.Intf.next_ready () with
                 | Some u ->
                   inst.Intf.on_started u;
                   into.(!k) <- u;
                   incr k
                 | None -> raise Dry
               done
             with Dry -> ());
            !k
        in
        t.outstanding <- t.outstanding + k;
        (k, t.outstanding))
  in
  if k > 0 then Got k else if out > 0 then Pending else Drained

let complete_batch t ~wid ~tasks ~ntasks ~acts ~counts =
  locked t wid Obs.Event.sched_complete (fun inst ->
      let pos = ref 0 in
      for i = 0 to ntasks - 1 do
        let c = Array.unsafe_get counts i in
        for j = !pos to !pos + c - 1 do
          inst.Intf.on_activated (Array.unsafe_get acts j)
        done;
        pos := !pos + c;
        inst.Intf.on_completed (Array.unsafe_get tasks i)
      done;
      (* counter updates batched: [completed] must only rise after the
         corresponding activations were delivered (the termination
         invariant), which holds a fortiori when the whole batch lands
         before the single bump *)
      t.outstanding <- t.outstanding - ntasks;
      ignore (Prelude.Vatomic.fetch_and_add t.completed ntasks))
