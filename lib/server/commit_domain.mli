(** The one long-lived domain that runs background commits.

    Every {!Engine.commit_async} of the process runs here, one job at a
    time, in submission order. The domain is spawned by the first
    {!start} and then parks between jobs, so a stream of async commits
    pays for one [Domain.spawn], not one per commit. A parked commit
    domain does not keep the process alive: the program exits when its
    main domain does. *)

type 'a pending
(** A queued or running job and, once it finished, its outcome. *)

val start : (unit -> 'a) -> 'a pending
(** Queue [f] on the commit domain. An exception raised by [f] is
    captured in the outcome; the domain goes on to the next job. *)

val is_done : 'a pending -> bool
(** Has the job finished? Never blocks. *)

val wait : 'a pending -> ('a, exn) result
(** Block until the job finished; its value, or the exception it
    raised. *)
