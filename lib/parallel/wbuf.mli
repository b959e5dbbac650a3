(** Per-worker bounded ready-buffer with stealing.

    Each executor worker owns one ring; it refills it in batches from
    the scheduler (one lock round-trip per batch) and pops it one task
    at a time without touching the scheduler lock, so the tasks it has
    not started stay stealable. Idle workers steal the front half of a
    peer's ring before falling back to the scheduler.

    All operations take the ring's private test-and-set spinlock for a
    few instructions; the ring is safe for one owner plus any number of
    thieves. FIFO order is preserved (schedulers release tasks in their
    preferred order; the buffer should not invert it), but note that
    any set of concurrently released tasks is mutually safe to run in
    any order — safety never depends on buffer order. *)

type t

val create : int -> t
(** [create capacity] rounds the capacity up to a power of two. *)

val capacity : t -> int

val length : t -> int
(** Racy outside the lock; exact enough for heuristics. *)

val push_batch : t -> int array -> int -> int -> int
(** [push_batch t tasks off len] appends [tasks.(off .. off+len-1)],
    returning how many fit. Owner only. *)

val pop : t -> int
(** Pop the oldest entry, or [-1] if the ring is empty (task ids are
    node ids, always non-negative; the sentinel keeps the owner's
    per-task fast path allocation-free). Owner only. *)

val steal_into : t -> int array -> int
(** [steal_into victim scratch] transfers the oldest half (at least
    one if nonempty) of [victim] into [scratch], returning the count.
    [scratch] must hold [capacity victim] entries. *)
