(** Measured makespan breakdown.

    Aggregates a trace into per-worker busy / scheduler / steal /
    park / idle seconds, task and steal counts, DRed phase totals and
    a critical-path utilization figure
    ([total busy / (workers x makespan)]). "Scheduler" time is the
    measured cost of the batched scheduler lock — wait plus hold — the
    quantity the paper models with abstract op counts; setting the two
    against each other is the point of this module. *)

type event = { wid : int; kind : Event.kind; t0_ns : int; t1_ns : int; arg : int }
(** A normalized event: a closed span [t0, t1] (equal for instants)
    with its payload argument. *)

type worker = {
  wid : int;
  busy_s : float;  (** inside executor tasks (or DRed phases when the
                       worker ran no executor tasks — the serial path) *)
  sched_s : float;  (** scheduler-lock sections, wait + hold *)
  steal_s : float;  (** steal attempts, successful or not *)
  park_s : float;  (** blocked on the eventcount *)
  idle_s : float;  (** makespan minus the above, clamped at 0 *)
  tasks : int;
  steal_attempts : int;
  stolen : int;
  wakes : int;
  events : int;
  dropped : int;
}

type t = {
  workers : worker array;
  makespan_s : float;  (** first event start to last event end *)
  busy_s : float;
  sched_s : float;
  steal_s : float;
  park_s : float;
  idle_s : float;
  utilization : float;
  dred_delete_s : float;
  dred_rederive_s : float;
  dred_insert_s : float;
  cnt_propagate_s : float;
  cnt_backward_s : float;
  cnt_forward_s : float;
      (** counting-maintenance phase totals; like the DRed phases they
          count toward a worker's busy time on the serial path *)
  cnt_o1_hits : int;
      (** deletion-suspects disposed of by the O(1) well-founded
          support index, no body re-evaluation *)
  cnt_full_probes : int;
      (** deletion-suspects that needed a full goal-directed probe *)
  cnt_healed : int;
      (** tuples the index-healing pass re-leveled so the support
          index vouches for them again *)
  srv_commit_s : float;
      (** total update-server commit-span seconds (admission to
          snapshot publication); the maintenance phases inside a
          commit do their own busy accounting, so this is not added
          to any worker's busy time *)
  srv_epoch_s : float;  (** total closed-epoch lifetime seconds *)
  srv_commits : int;  (** server commits recorded *)
  srv_epochs : int;  (** server epochs closed (snapshot superseded) *)
  srv_admitted : int;  (** client operations admitted across commits *)
  events : int;
  dropped : int;
}

val of_trace : Trace.t -> t
(** Summarize live rings (after the writers have quiesced). *)

val of_events : domains:int -> ?dropped:int array -> event list -> t
(** Summarize normalized events, e.g. re-read from a Chrome file by
    {!Export.events_of_json}. [dropped] is per-worker wraparound loss
    when known. *)

val sched_overhead_s : t -> float
(** Total measured scheduler time (= [sched_s]); named for the
    measured-vs-modeled comparison in bench output. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable table (use within a vertical box). *)

val json : t -> Json.t
(** The breakdown as a JSON object, for embedding in [BENCH_*.json]. *)
