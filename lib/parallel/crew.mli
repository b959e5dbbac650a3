(** A fixed crew of long-lived worker domains running one job per
    member behind a completion barrier.

    {!Executor.run} runs its [d] workers on a crew of size [d]: worker 0
    on the calling thread, workers [1 .. d-1] on the crew's domains.
    Keeping the domains alive between runs (and lending crews out of a
    {!pool}) means back-to-back runs spawn no domains.

    The mutex/condvar handoff in {!run} establishes happens-before
    between the caller and every member in both directions, so state a
    job writes is visible to the caller once {!run} returns, and state
    the caller wrote before {!run} is visible to every job.

    {!run} is serialized internally: concurrent callers of one crew
    queue on its entry mutex. *)

type t

val create : size:int -> t
(** Spawn [size - 1] worker domains (none when [size = 1]).
    @raise Invalid_argument when [size < 1]. *)

val run : t -> (int -> unit) -> unit
(** [run t job] executes [job i] for every member [i] in [0..size-1]
    — member 0 on the calling thread, member [i > 0] always on the
    same dedicated worker domain — and returns after all of them
    finished. If any job raises, {!run} still waits for the rest, then
    re-raises one of the exceptions in the caller. *)

val shutdown : t -> unit
(** Join the worker domains. Idempotent; {!run} after shutdown raises
    [Invalid_argument]. *)

type pool
(** A set of idle crews, keyed by size. *)

val pool : unit -> pool

val with_crew : pool -> size:int -> (t -> 'a) -> 'a
(** [with_crew pool ~size f] runs [f] with an idle [size]-crew of
    [pool], spawning one only when none is idle, and returns the crew
    to the pool afterwards (also when [f] raises). Concurrent callers
    get distinct crews, so a borrower never queues behind another.
    Idle crews park and do not keep the process alive. *)
