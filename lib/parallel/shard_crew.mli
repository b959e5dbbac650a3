(** A fixed crew of worker domains for intra-task shard fan-out.

    The trace executor ({!Executor}) parallelizes across tasks of a
    static DAG; sharded incremental maintenance
    ({!Datalog.Incremental.apply}) also needs parallelism
    {e inside} one task — each semi-naive round of a DRed phase fans
    the shard slices out, barriers, and the coordinator merges. Rounds
    are data-dependent, so they cannot be nodes of the executor's
    pre-built DAG; the crew provides the missing primitive: [k-1]
    long-lived worker domains plus the calling thread execute one job
    per shard and {!run} returns only after every shard finished — the
    barrier.

    Safety contract (the (component, shard) ownership rule): the job
    for shard [s] must write only state owned by shard [s] (its private
    buffer slots); everything else it reads must be frozen for the
    duration of the call. The mutex/condvar handoff in {!run}
    establishes happens-before between the caller and every worker in
    both directions, so plain (unsynchronized) buffer slots are safe.

    {!run} is serialized internally: concurrent callers (two component
    tasks fanning out at once) queue on the crew's mutex and their
    fan-outs interleave at round granularity.

    {!Executor.run} uses crews too, for its workers [1 .. domains-1]:
    a pool of long-lived crews, distinct from the per-update shard
    crew, since component tasks call {!run} from inside executor
    workers. *)

type t

val create : shards:int -> t
(** Spawn [shards - 1] worker domains (none when [shards <= 1]).
    @raise Invalid_argument when [shards < 1]. *)

val shards : t -> int

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job s] for every shard [s] in [0..shards-1]
    — shard 0 on the calling thread, shard [s > 0] always on the same
    dedicated worker domain — and returns after all of them finished.
    If any job raises, {!run} still waits for the rest, then re-raises
    one of the exceptions in the caller. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; {!run} after shutdown raises
    [Invalid_argument]. *)
