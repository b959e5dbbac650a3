(** Trace event kinds.

    Events are flat int records [(kind, t_ns, a, b)]; every span is a
    single record carrying its own start stamp in [b] (and, for
    scheduler sections, the lock wait in [a]), so recording never
    needs a matching begin/end pass and the ring can drop oldest
    records without orphaning half a span. Timestamps are integer
    nanoseconds since the owning trace's epoch. *)

type kind = int

val task : kind
(** Task execution span: [a] = task id, [b] = start, [t] = finish. *)

val steal : kind
(** Steal attempt span: [a] = tasks obtained (0 = failed attempt),
    [b] = start, [t] = end. *)

val park : kind
(** Blocked-on-eventcount span: [b] = park start, [t] = wake. *)

val wake : kind
(** Instant: this worker asked the eventcount to wake [a] peers. *)

val sched_refill : kind
val sched_complete : kind
val sched_activate : kind
(** Batched scheduler-lock sections ({!Sched.Protected}): [t] =
    release stamp, [b] = acquire stamp, [a] = nanoseconds spent
    waiting for the lock; the full section spans [b - a, t]. *)

val dred_delete : kind
val dred_rederive : kind
val dred_insert : kind
(** DRed maintenance phases per condensation component: [a] =
    component id, [b] = phase start, [t] = phase end. *)

val cnt_propagate : kind
val cnt_backward : kind
val cnt_forward : kind
(** Counting maintenance phases per condensation component
    (a session prepared with [~maint:Counting]): count-delta
    propagation from the external update, backward alternative-
    derivation search, and forward death/birth cascades. Fields as for
    the [dred_*] kinds: [a] = component id, [b] = phase start, [t] =
    phase end. *)

val cnt_o1_hit : kind
val cnt_full_probe : kind
(** Instants: how the counting backward phase disposed of its
    deletion-suspects in one component — [a] = number of suspects
    proven by the O(1) well-founded support index (surviving
    strictly-lower-level supporter, no body re-evaluation), resp.
    number that needed a full goal-directed {!Matcher.eval_body}
    probe; [b] = component id. Emitted once per component that ran a
    backward phase. The pool of a component whose recursive rules are
    all linear holds only the tuples that lost an exit derivation or
    an index entry (and those the index could not vouch for), so [a]
    of [cnt_o1_hit] counts those, not the whole component. *)

val cnt_heal : kind
(** Instant: the counting engine's index-healing pass in one linear
    component — [a] = tuples re-leveled (raised or re-counted so the
    index vouches for them again), [b] = component id. Emitted once
    per linear component per maintenance run. *)

val srv_admit : kind
(** Instant: the update server admitted a client batch for
    maintenance — [a] = operations admitted, [b] = the epoch the
    batch will produce. *)

val srv_commit : kind
(** Server commit span — one maintenance run between admission and
    snapshot publication: [a] = epoch produced, [b] = commit start,
    [t] = publish. *)

val srv_epoch : kind
(** Server epoch-lifetime span, emitted when the epoch's snapshot is
    superseded: [a] = epoch id, [b] = the stamp its snapshot was
    published, [t] = the stamp the next snapshot replaced it. *)

val count : int
(** Number of kinds; valid kinds are [0 .. count - 1]. *)

val name : kind -> string

val of_name : string -> kind option

val is_instant : kind -> bool

val is_sched : kind -> bool

val is_dred : kind -> bool

val is_cnt : kind -> bool

val is_srv : kind -> bool

val span_start_ns : kind -> a:int -> b:int -> int
(** Start of the full span (for sched sections, including the lock
    wait) in ns since the trace epoch. *)
