(** The seed's big-lock executor, retained as a benchmark baseline.

    Serializes [next_ready], status transitions, activation
    propagation and log appends through one global mutex, and wakes
    every waiting worker with [Condition.broadcast] on each
    completion. Protocol and result are identical to {!Executor}.
    Scheduler op counters are attributed per worker with the same
    snapshot/credit scheme as {!Sched.Protected} (initial activations
    credited to worker 0); [steals] is 0 structurally — there are no
    worker-local buffers to steal from, which trace summaries should
    read as "no stealing exists here", not "stealing was free. "
    Exists so [bench/main.exe -- dispatch] can measure the
    coordination cost the lock-free executor removes; new code should
    use {!Executor.run}. *)

val run :
  ?domains:int ->
  ?work_unit:float ->
  ?obs:Obs.Trace.t ->
  sched:Sched.Intf.factory ->
  Workload.Trace.t ->
  Executor.result
(** [obs] (default disabled) records task spans, big-lock scheduler
    sections (refill = [next_ready]+[on_started], complete =
    activations+[on_completed]; the span's wait field is 0 because the
    big lock is held across the whole dispatch loop) and
    condition-wait park spans into the per-worker rings. *)
