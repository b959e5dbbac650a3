(* Model-checking scenarios for the lock-free executor.

   Each scenario is a 2–3 process program over {!Prelude.Vatomic}
   state, small enough for exhaustive bounded exploration yet shaped
   exactly like one of the executor's synchronization protocols:

   - [lifecycle]: the CAS task state machine of Executor.run —
     activation raced by two completing parents, scheduler-gated claim,
     run-once invariant;
   - [steal_vs_pop]: the *real* {!Parallel.Wbuf} code — an owner
     pushing a batch and popping it one task at a time (as the
     executor drains) while a thief probes and steals; the
     happens-before checker verifies the ring's spinlock discipline,
     the final check that no task is lost or duplicated;
   - [park_wake]: the eventcount parking protocol (events/parked pair,
     mutex-protected registration, persistent wake token standing in
     for the condition variable, as in Executor.run's [park]/[wake]);
   - [protected_batch]: Sched.Protected.complete_batch's termination
     counters — activations delivered before the [completed] bump, and
     the executor's read-completed-first termination test;
   - [comp_ownership]: the component-ownership protocol of
     Incremental.apply ~domains — plain relation writes confined to
     the owning task, downstream reads gated on the scheduler's
     release rather than on mere activation;
   - [fail_park]: Executor.run's failure path against its park — a
     worker that saw no failure, snapshots the eventcount and parks,
     racing [fail]'s failure publication and wake_all;

   Every safe scenario has a deliberately broken sibling ([Buggy])
   whose counterexample the checker must find; those schedules are
   pinned as regression tests in test/test_analysis.ml. Mutexes and
   condition variables cannot be used under the checker (they would
   block the whole domain), so the scenarios model them with the same
   primitives the real code's comments argue about: a CAS spinlock for
   the mutex, a persistent token for the condvar. *)

module V = Prelude.Vatomic

(* CAS spinlock standing in for Mutex: the failed-CAS respin is
   recognized by the checker's futility rule, so waiting is explored
   as blocking, not as unbounded spinning. *)
let lock m =
  while not (V.compare_and_set m 0 1) do
    ()
  done

let unlock m = V.set m 0

type expectation = Safe | Buggy

(* ---- 1. task lifecycle: activate race + gated claim ------------- *)

let inactive = 0

let active = 1

let running = 2

let done_ = 3

let lifecycle ~atomic_activate =
  {
    Mc.name = (if atomic_activate then "lifecycle" else "lifecycle-buggy-activate");
    nprocs = 2;
    instantiate =
      (fun () ->
        (* tasks 0 and 1 are parents already running; task 2 is their
           shared child, reachable over changed edges from both *)
        let status = V.Int_array.make 3 in
        V.Int_array.set status 0 running;
        V.Int_array.set status 1 running;
        let activations = V.make 0 in
        let runs = V.make 0 in
        let flushed = V.make 0 in
        let body p =
          (* complete own parent: final-state publication *)
          V.Int_array.set status p done_;
          (* Executor.run's try_activate, verbatim protocol *)
          let rec try_activate () =
            match V.Int_array.get status 2 with
            | s when s = inactive ->
              if atomic_activate then begin
                if V.Int_array.cas status 2 inactive active then V.incr activations
                else try_activate ()
              end
              else begin
                (* broken: read-check-then-write lets both parents win *)
                V.Int_array.set status 2 active;
                V.incr activations
              end
            | s when s = active -> ()
            | s -> failwith (Printf.sprintf "task 2 activated after it ran (status %d)" s)
          in
          try_activate ();
          (* flush own completion; the scheduler releases the child
             only once both parents' completions are flushed *)
          ignore (V.fetch_and_add flushed 1);
          if V.get flushed = 2 then
            if V.Int_array.cas status 2 active running then begin
              V.incr runs;
              V.Int_array.set status 2 done_
            end
        in
        let finish () =
          assert (V.get activations = 1);
          assert (V.get runs = 1);
          assert (V.Int_array.get status 2 = done_)
        in
        (body, finish));
  }

(* ---- 2. steal vs. local pop on the real Wbuf -------------------- *)

let steal_vs_pop =
  {
    Mc.name = "steal-vs-pop";
    nprocs = 2;
    instantiate =
      (fun () ->
        let buf = Parallel.Wbuf.create 4 in
        let tasks = [| 10; 11; 12; 13 |] in
        (* per-process result lists: each process writes only its own
           slot, so a plain array is race-free by construction *)
        let got = [| []; [] |] in
        let body p =
          if p = 0 then begin
            let pushed = Parallel.Wbuf.push_batch buf tasks 0 4 in
            assert (pushed = 4);
            (* the executor's owner drain: one task per pop *)
            let rec drain () =
              let u = Parallel.Wbuf.pop buf in
              if u >= 0 then begin
                got.(0) <- u :: got.(0);
                drain ()
              end
            in
            drain ()
          end
          else begin
            (* the executor's thief: racy occupancy probe, then steal *)
            if Parallel.Wbuf.length buf > 0 then begin
              let scratch = Array.make (Parallel.Wbuf.capacity buf) 0 in
              let n = Parallel.Wbuf.steal_into buf scratch in
              for i = 0 to n - 1 do
                got.(1) <- scratch.(i) :: got.(1)
              done
            end
          end
        in
        let finish () =
          let all = List.sort compare (got.(0) @ got.(1)) in
          (* every pushed task obtained exactly once: no loss, no dup *)
          assert (all = [ 10; 11; 12; 13 ])
        in
        (body, finish));
  }

(* ---- 3. eventcount park vs. wake -------------------------------- *)

let park_wake ~recheck =
  {
    Mc.name = (if recheck then "park-wake" else "park-wake-buggy-lost-wakeup");
    nprocs = 2;
    instantiate =
      (fun () ->
        let events = V.make 0 in
        let parked = V.make 0 in
        let pmutex = V.make 0 in
        (* persistent token in place of the condition variable: a
           signal sent before the sleeper arrives is not lost *)
        let token = V.make 0 in
        let work = V.make 0 in
        let got = V.make 0 in
        let try_take () = V.compare_and_set work 1 0 in
        let producer () =
          V.set work 1;
          (* publish the event BEFORE reading [parked]: the SC
             store-buffering argument from Executor.run *)
          V.incr events;
          lock pmutex;
          if V.get parked > 0 then V.set token 1;
          unlock pmutex
        in
        let worker () =
          if try_take () then V.incr got
          else begin
            (* snapshot the eventcount before the final search *)
            let e = V.get events in
            if try_take () then V.incr got
            else begin
              lock pmutex;
              V.incr parked;
              if (not recheck) || V.get events = e then begin
                (* sleep: release the mutex, block on the token *)
                unlock pmutex;
                while not (V.compare_and_set token 1 0) do
                  ()
                done;
                lock pmutex
              end;
              V.decr parked;
              unlock pmutex;
              (* woken (or the park was skipped): work must be there *)
              assert (try_take ());
              V.incr got
            end
          end
        in
        let body p = if p = 0 then producer () else worker () in
        let finish () =
          assert (V.get got = 1);
          assert (V.get work = 0)
        in
        (body, finish));
  }

(* ---- 4. Protected batching: termination counters ---------------- *)

let protected_batch ~deliver_first =
  {
    Mc.name =
      (if deliver_first then "protected-batch" else "protected-batch-buggy-early-bump");
    nprocs = 2;
    instantiate =
      (fun () ->
        (* one root task (pre-activated) whose completion activates one
           child; a worker-side observer runs the executor's
           termination test concurrently, without the lock *)
        let m = V.make 0 in
        let activated = V.make 1 in
        let completed = V.make 0 in
        let all_done = V.make 0 in
        let completer () =
          (* complete_batch for the root: deliver the activation, then
             bump completed — or the broken order *)
          lock m;
          if deliver_first then begin
            V.incr activated;
            V.incr completed
          end
          else begin
            V.incr completed;
            V.incr activated
          end;
          unlock m;
          (* complete_batch for the child: publish all-done before the
             final bump so termination implies it *)
          lock m;
          V.set all_done 1;
          V.incr completed;
          unlock m
        in
        let observer () =
          for _ = 1 to 2 do
            (* Executor.terminated: read completed FIRST — activated
               can only have grown since *)
            let c = V.get completed in
            let a = V.get activated in
            assert (c <= a);
            if c = a then assert (V.get all_done = 1)
          done
        in
        let body p = if p = 0 then completer () else observer () in
        let finish () = assert (V.get completed = 2 && V.get activated = 2) in
        (body, finish));
  }

(* ---- 5. race detector demo -------------------------------------- *)

let plain_race ~locked =
  {
    Mc.name = (if locked then "plain-locked" else "plain-race-buggy");
    nprocs = 2;
    instantiate =
      (fun () ->
        let m = V.make 0 in
        let cell = V.Plain.make 0 in
        let body p =
          if locked then begin
            lock m;
            V.Plain.set cell (V.Plain.get cell + (p + 1));
            unlock m
          end
          else V.Plain.set cell (V.Plain.get cell + (p + 1))
        in
        let finish () = assert (V.Plain.get cell > 0) in
        (body, finish));
  }

(* ---- 6. parallel maintenance: component ownership --------------- *)

(* The protocol behind Incremental.apply ~domains: each DRed task
   mutates only its own component's relations (plain, unsynchronized
   writes) and reads upstream relations only after the scheduler has
   released it — i.e. after every upstream task's completion has been
   flushed through the Protected lock, which is the happens-before
   edge. Modeled with two components: upstream (process 0) writes its
   relation [up] and then publishes completion; downstream (process 1)
   blocks on the release gate, reads [up] and writes its own relation
   [down]. The buggy sibling starts the downstream task on the early
   "activated" signal — delivered as soon as the first changed input
   arrives, before the upstream is quiescent — and mutates [up]
   directly (the ownership violation). The vector-clock checker must
   flag the unordered conflicting plain accesses as a race. *)
let comp_ownership ~gated =
  {
    Mc.name = (if gated then "comp-ownership" else "comp-ownership-buggy-eager");
    nprocs = 2;
    instantiate =
      (fun () ->
        (* relations are plain cells: the real code's tuple tables are
           unsynchronized too, that is the point of the ownership rule *)
        let up = V.Plain.make 0 in
        let down = V.Plain.make 0 in
        let activated = V.make 0 in
        let released = V.make 0 in
        let upstream () =
          V.Plain.set up 1;
          (* activation travels as soon as a changed input exists,
             strictly before the component is done writing *)
          V.set activated 1;
          V.Plain.set up 2;
          (* completion flush: the scheduler releases dependents only
             after this (Protected.complete under the lock) *)
          V.set released 1
        in
        let downstream () =
          if gated then begin
            (* wait for the release, the executor's claim CAS *)
            while not (V.compare_and_set released 1 2) do
              ()
            done;
            V.Plain.set down (V.Plain.get up + 10)
          end
          else begin
            (* broken: run on mere activation and write the upstream
               relation while its owner may still be writing *)
            while not (V.compare_and_set activated 1 2) do
              ()
            done;
            V.Plain.set up (V.Plain.get up + 10)
          end
        in
        let body p = if p = 0 then upstream () else downstream () in
        let finish () =
          if gated then begin
            (* the downstream read saw the fully-written upstream *)
            assert (V.Plain.get up = 2);
            assert (V.Plain.get down = 12)
          end
          else assert (V.Plain.get up > 0)
        in
        (body, finish));
  }

(* ---- 7. executor failure vs. park ------------------------------ *)

(* Executor.run's worker loop checks [failure] at its top, and when
   the scheduler answers Pending it snapshots [events] and parks until
   [events] moves. [fail] publishes the failure, then wake_all bumps
   [events] and broadcasts. A scheduler callback that raised keeps
   answering Pending, so a parked worker has nothing else to wake it:
   the crew's barrier then waits for it forever. Process 0 is the
   failer; process 1 is the worker, parking exactly as in [park_wake]
   (mutex-protected registration, persistent token for the condvar; a
   broadcast wakes only registered sleepers). The fix re-checks
   [failure] after the snapshot: a [fail] that landed before the
   snapshot is seen there, one after it bumps [events] past the
   snapshot. The buggy sibling parks without the re-check, and the
   schedule where [fail] lands between the loop-top check and the
   snapshot sleeps forever — a deadlock the checker must find. *)
let fail_park ~recheck =
  {
    Mc.name = (if recheck then "fail-park" else "fail-park-buggy-no-recheck");
    nprocs = 2;
    instantiate =
      (fun () ->
        let failure = V.make 0 in
        let events = V.make 0 in
        let parked = V.make 0 in
        let pmutex = V.make 0 in
        let token = V.make 0 in
        let exited = V.make 0 in
        let failer () =
          (* fail: publish the failure first, then wake_all *)
          V.set failure 1;
          V.incr events;
          lock pmutex;
          if V.get parked > 0 then V.set token 1;
          unlock pmutex
        in
        let worker () =
          (* loop top: no failure yet, the scheduler answers Pending *)
          if V.get failure = 0 then begin
            let e = V.get events in
            if (not recheck) || V.get failure = 0 then begin
              lock pmutex;
              V.incr parked;
              if V.get events = e then begin
                unlock pmutex;
                while not (V.compare_and_set token 1 0) do
                  ()
                done;
                lock pmutex
              end;
              V.decr parked;
              unlock pmutex
            end
          end;
          (* back at the loop top, the failure is visible: exit *)
          assert (V.get failure = 1);
          V.set exited 1
        in
        let body p = if p = 0 then failer () else worker () in
        let finish () = assert (V.get exited = 1) in
        (body, finish));
  }

(* ---- 8. observability: ring publish/consume --------------------- *)

(* Obs.Ring's single-writer protocol: the owning worker writes a
   record's slots (plain stores into the flat arrays) and only then
   bumps the published cursor through Vatomic; a consumer loads the
   cursor first and touches only slots the cursor covers, so every
   record it reads is fully written — the cursor is the happens-before
   edge. The buggy sibling bumps the cursor before writing the slot:
   the consumer can then read a record the writer is still filling in,
   and the two plain slot accesses are unordered — a race the
   vector-clock checker must flag. *)
let ring_publish ~publish_after =
  {
    Mc.name =
      (if publish_after then "ring-publish" else "ring-publish-buggy-early-cursor");
    nprocs = 2;
    instantiate =
      (fun () ->
        let slot = V.Plain.make 0 in
        let published = V.make 0 in
        let seen = V.Plain.make (-1) in
        let writer () =
          if publish_after then begin
            V.Plain.set slot 42;
            V.set published 1
          end
          else begin
            (* broken: cursor visible while the slot is still blank *)
            V.set published 1;
            V.Plain.set slot 42
          end
        in
        let consumer () =
          if V.get published = 1 then V.Plain.set seen (V.Plain.get slot)
        in
        let body p = if p = 0 then writer () else consumer () in
        let finish () =
          (* a consumed record is a whole record; -1 = cursor not yet
             visible, nothing consumed, also fine *)
          if publish_after then assert (V.Plain.get seen = -1 || V.Plain.get seen = 42)
        in
        (body, finish));
  }

let safe =
  [
    lifecycle ~atomic_activate:true;
    steal_vs_pop;
    park_wake ~recheck:true;
    protected_batch ~deliver_first:true;
    plain_race ~locked:true;
    comp_ownership ~gated:true;
    fail_park ~recheck:true;
    ring_publish ~publish_after:true;
  ]

let buggy =
  [
    lifecycle ~atomic_activate:false;
    park_wake ~recheck:false;
    protected_batch ~deliver_first:false;
    plain_race ~locked:false;
    comp_ownership ~gated:false;
    fail_park ~recheck:false;
    ring_publish ~publish_after:false;
  ]

let all =
  List.map (fun s -> (s, Safe)) safe @ List.map (fun s -> (s, Buggy)) buggy

let find name =
  match List.find_opt (fun (s, _) -> s.Mc.name = name) all with
  | Some (s, _) -> s
  | None -> invalid_arg ("Scenarios.find: unknown scenario " ^ name)
