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

    Crews are long-lived and lent out by a {!pool}. {!Executor.run}
    borrows its workers [1 .. domains-1] from one process-wide pool;
    sharded maintenance borrows its fan-out crews from another. The two
    must stay apart: component tasks call {!run} from inside executor
    workers, and a crew shared between both roles would deadlock on
    its entry mutex. *)

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

type pool
(** A set of idle crews, keyed by size. *)

val pool : unit -> pool

val with_crew : pool -> shards:int -> (t -> 'a) -> 'a
(** [with_crew pool ~shards f] runs [f] with an idle [shards]-crew of
    [pool], spawning one only when none is idle, and returns the crew
    to the pool afterwards (also when [f] raises). Concurrent callers
    get distinct crews, so a borrower never queues behind another.
    Idle crews park and do not keep the process alive. *)
