(* A bounded FIFO ring of task ids guarded by a tiny test-and-set
   spinlock. The owner pushes refilled batches and pops from the front;
   idle peers steal the front half. Every operation is a handful of
   loads and stores, and contention is rare (a thief only shows up when
   it has nothing else to do), so a spinlock beats both a Mutex (futex
   round-trip) and a lock-free deque (fences on the owner's fast path)
   at this scale.

   All shared state goes through {!Prelude.Vatomic} so the analysis
   build can model-check owner/thief interleavings (the steal-vs-pop
   scenario in Analysis.Scenarios runs this exact code) and its
   happens-before checker can verify that every head/tail access is
   ordered by the lock. [slots] stays a raw array: every slot access is
   guarded by the same lock as the head/tail accesses next to it, so a
   broken lock surfaces as a head/tail race first. *)

module Vatomic = Prelude.Vatomic

type t = {
  lock : int Vatomic.t;
  slots : int array;
  mask : int;
  head : int Vatomic.Plain.t; (* pop end; slots in [head, tail) are live *)
  tail : int Vatomic.Plain.t;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create capacity =
  if capacity < 1 then invalid_arg "Wbuf.create: capacity < 1";
  let cap = next_pow2 capacity 1 in
  {
    lock = Vatomic.make 0;
    slots = Array.make cap 0;
    mask = cap - 1;
    head = Vatomic.Plain.make 0;
    tail = Vatomic.Plain.make 0;
  }

let capacity t = t.mask + 1

(* Lock acquire: the successful CAS is an acquire — it orders every
   head/tail/slot load in the critical section after the previous
   holder's release store below. (OCaml atomics are SC, which is
   stronger than the acquire this needs.) *)
let acquire t =
  while not (Vatomic.compare_and_set t.lock 0 1) do
    Domain.cpu_relax ()
  done

(* Lock release: the store is a release — every plain write to
   head/tail/slots inside the critical section becomes visible to the
   next acquirer before the lock reads 0. *)
let release t = Vatomic.set t.lock 0

(* Unsynchronized occupancy probe for would-be thieves: reads both
   cursors without the lock, so the result may be torn or stale. Fine
   for its only use — deciding whether locking the victim is worth it;
   any decision taken on a stale value is re-validated under the lock
   by the steal itself. The racy reads are declared as such so the
   analysis-build race detector does not flag them. *)
let length t = Vatomic.Plain.get_racy t.tail - Vatomic.Plain.get_racy t.head

(* Owner or lock holder only. *)
let len_locked t = Vatomic.Plain.get t.tail - Vatomic.Plain.get t.head

(* Owner only. Returns how many of [tasks.(off .. off+len-1)] were
   accepted (all of them unless the ring is full). *)
let push_batch t tasks off len =
  acquire t;
  let live = len_locked t in
  let room = capacity t - live in
  let n = min len room in
  let tail = Vatomic.Plain.get t.tail in
  for i = 0 to n - 1 do
    t.slots.((tail + i) land t.mask) <- tasks.(off + i)
  done;
  Vatomic.Plain.set t.tail (tail + n);
  (* loud capacity check in dev builds: a cursor bug (overflow past
     capacity, or head overtaking tail) would otherwise corrupt the
     ring silently by aliasing live slots *)
  assert (
    let l = len_locked t in
    l >= 0 && l <= capacity t);
  release t;
  n

(* Returns -1 when empty: the pop is the owner's per-task fast path,
   and an option would allocate on every success. Task ids are node
   ids, always >= 0. *)
let pop t =
  acquire t;
  let head = Vatomic.Plain.get t.head in
  let r =
    if head = Vatomic.Plain.get t.tail then -1
    else begin
      let u = t.slots.(head land t.mask) in
      Vatomic.Plain.set t.head (head + 1);
      u
    end
  in
  release t;
  r

(* Steal the front half (at least one) of [victim] into [tasks],
   returning the count. Called by a thief; [tasks] must have room for
   [capacity victim] entries. Locks only the victim — the thief's own
   ring is touched by its owner afterwards, so no lock ordering issue
   can arise. *)
let steal_into victim tasks =
  acquire victim;
  let len = len_locked victim in
  let n = if len = 0 then 0 else (len + 1) / 2 in
  let head = Vatomic.Plain.get victim.head in
  for i = 0 to n - 1 do
    tasks.(i) <- victim.slots.((head + i) land victim.mask)
  done;
  Vatomic.Plain.set victim.head (head + n);
  release victim;
  n
