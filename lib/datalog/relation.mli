(** Materialized relations: sets of interned tuples with lazy per-column
    hash indexes for join probing. *)

type tuple = int array

type t

val create : arity:int -> t

val create_small : arity:int -> t
(** A relation expected to stay small (an update's per-predicate
    delta, most of which stay empty): its tuple table starts at a
    quarter of {!create}'s size, and grows as usual. *)

val arity : t -> int

val cardinality : t -> int

val mem : t -> tuple -> bool

val add : t -> tuple -> bool
(** [true] iff the tuple was new. Invalidates indexes incrementally. *)

val remove : t -> tuple -> bool
(** [true] iff the tuple was present. *)

val iter : (tuple -> unit) -> t -> unit
(** Iteration walks live hashtable state, so the relation must not be
    mutated while a walk is in progress (callers buffer derived updates
    and apply them afterwards — see {!Plan.exec_rule_deferred}). A
    best-effort version check raises [Invalid_argument] when a callback
    mutates the iterated relation, instead of silently skipping tuples
    when a resize relinks buckets mid-walk. The same contract applies to
    {!fold}, {!iter_matching} and {!fold_matching}. *)

val fold : ('acc -> tuple -> 'acc) -> 'acc -> t -> 'acc

val to_list : t -> tuple list

val copy : t -> t

val clear : t -> unit

val iter_matching : t -> col:int -> value:int -> (tuple -> unit) -> unit
(** Apply a function to every tuple whose [col]th component equals
    [value]; O(matches) via a lazily-built index kept consistent under
    [add]/[remove], with no per-probe allocation. The tuples handed out
    are the relation's own arrays: callers must not mutate them and must
    copy before retaining (as {!add} does). The callback must not mutate
    the probed relation (see {!iter}); raises [Invalid_argument] if it
    does. *)

val fold_matching : t -> col:int -> value:int -> ('acc -> tuple -> 'acc) -> 'acc -> 'acc
(** Fold variant of {!iter_matching}. *)

val prepare : ?cols:int list -> t -> unit
(** Eagerly finalize the per-column probe indexes ([cols], default all
    columns) before the relation is shared read-only across domains.
    Lazy builds are themselves safe to race — a probe that finds no
    index constructs one fully and publishes it atomically, so a
    sibling domain sees either nothing or a finished index — but eager
    preparation avoids sibling readers duplicating the build work.
    @raise Invalid_argument on an out-of-range column. *)

val find : t -> col:int -> value:int -> tuple list
(** Tuples whose [col]th component equals [value]. Compatibility wrapper
    over {!fold_matching}: allocates the result list; probe loops should
    use {!iter_matching}. *)

val choose_probe_col : t -> bound:(int -> bool) -> int option
(** Some column index on which a probe makes sense: the first column
    for which [bound] is true. *)

(** {2 Derivation counts}

    Per-tuple derivation counts for {!Incremental}'s counting
    maintenance engine, kept in the relation's own tuple slot: the
    value the tuple table and every index bucket map a tuple to is its
    {!count_cell}, so one lookup answers both "is it present" and "what
    are its counts" ({!slot}). A relation the counting engine does not
    maintain maps every tuple to the shared sentinel {!no_cell}, so the
    non-counting path ([add]/[remove]/[mem]/probes, {!copy}) allocates
    nothing and looks nothing up for counts. Counts are split per tuple
    into [exits] — derivations by {e exit} rules (no body atom in the
    head's own SCC, hence acyclic support) — and [recs], derivations
    by recursive rules; the counting engine's backward phase uses the
    split to skip exit-supported tuples.

    [level] and [low] form the {e well-founded support index}. [level]
    is the stratified-fixpoint round of the tuple's first well-founded
    derivation (Soufflé's [@iteration]): [0] for exit-supported
    tuples, [r >= 1] for tuples first leveled in recursive round [r],
    [max_int] for "unknown". A level is never lowered: lowering one
    retroactively changes how later derivation deaths classify against
    it, which can leave [low] overcounting. The counting engine may
    raise a level when it heals the index, debiting in the same step
    every consumer [low] entry that counted the tuple as a strictly
    lower witness. [low] counts the surviving recursive derivations
    whose supporter is known to sit at a strictly lower level — it may
    undercount (derivations with unknown supporters are never counted)
    but never overcounts, so [exits = 0 && low > 0] soundly exempts a
    deletion-suspect from the full backward re-proof.

    Staleness is detected by version stamp: {!counts_sync} records the
    relation version the counts were made consistent with, and any
    later mutation outside the counting engine (which bumps the
    version) makes {!counts_synced} return [None], forcing a rebuild
    instead of trusting stale counts. {!copy} carries no cells and no
    stamp; {!clear} drops both. *)

type count_cell = {
  key : tuple;  (** the tuple, as the slot holding the cell is keyed *)
  mutable exits : int;
  mutable recs : int;
  mutable level : int;
  mutable low : int;
  mutable debt : int;
      (** backward-phase scratch: how many of [low]'s entries were
          condemned by the running backward call. Always zero between
          calls — the phase resets what it filed. In the cell rather
          than a side ledger so the O(1) well-foundedness check
          ([exits = 0 && low - debt > 0]) is pure field arithmetic. *)
  mutable dexits : int;
  mutable drecs : int;
  mutable dlow : int;
      (** round scratch: the signed [exits]/[recs]/[low] deltas the
          counting engine's running round has accumulated for the
          tuple, merged into the counts when the round settles. Zero
          between rounds. *)
  mutable mark : int;  (** the counting engine's scratch flags; zero between runs *)
}

val no_cell : count_cell
(** The value of a tuple without counts: every tuple of a relation the
    counting engine does not maintain. A counted relation gives each
    present tuple a cell of its own, since all its tuples are derived
    (a listed fact of a derived predicate is the derivation of an exit
    rule from its extensional shadow, {!Ast.shadow_listed_facts}).
    Shared and never written. Its
    [level] is [max_int] ("unknown"). *)

val absent : count_cell
(** What {!slot} answers for a tuple not in the relation. Shared and
    never written; [level = max_int]. Tell it apart from {!no_cell}
    and from real cells with [==]. *)

val make_cell : tuple -> count_cell
(** A fresh cell for the tuple (counts zero, [level = max_int]); the
    key is copied, as in {!add}. *)

val slot : t -> tuple -> count_cell
(** One lookup: the tuple's cell, {!no_cell} if it is present without
    one, {!absent} if it is not present. *)

val add_cell : t -> count_cell -> bool
(** {!add} of the cell's [key], with the cell in its slot. The key
    array becomes the relation's own (no copy): it must not be mutated
    later. [true] iff the tuple was new. *)

val set_cell : t -> count_cell -> unit
(** Put the cell in the slot of its (present) [key], replacing
    whatever cell was there. Not a mutation of the tuple set: the
    version is unchanged.
    @raise Invalid_argument if the key is absent. *)

val iter_slots : (tuple -> count_cell -> unit) -> t -> unit
(** {!iter}, handing out each tuple's slot value with it. *)

val iter_matching_cells :
  t -> col:int -> value:int -> (tuple -> count_cell -> unit) -> unit
(** {!iter_matching}, handing out each tuple's slot value with it. *)

type counts
(** A counted relation's stamp: the version its cells were made
    consistent with. *)

val counts_attach : t -> unit
(** Start counting the relation afresh: every slot goes back to
    {!no_cell}, and a new, not yet synced stamp replaces the old
    one. *)

val counts_synced : t -> counts option
(** The relation's stamp, but only if it was synced at the relation's
    current version; [None] when the relation is not counted or its
    cells are stale. *)

val counts_sync : t -> unit
(** Stamp the cells as consistent with the relation's current
    contents. No-op on a relation that is not counted. *)

val counts_unsync : t -> unit
(** Mark the stamp unsynced until the next {!counts_sync}: the
    counting engine opens each run with it, so a run that raises
    leaves cells that the next run rebuilds rather than trusts. No-op
    on a relation that is not counted. *)

val count_find : t -> tuple -> count_cell option
(** The tuple's cell; [None] when it is absent or has none. Whether
    the cells are current is {!counts_synced}'s to say. *)

val count_total : count_cell -> int
(** [exits + recs]. *)

val counts_iter : (tuple -> count_cell -> unit) -> t -> unit
(** Every present tuple that has a cell, with it. *)

type relation = t

(** {2 Write-set sanitizer}

    Debug-mode runtime enforcement of the ownership discipline that
    {!Analyze.check_ownership} verifies statically: maintenance tags
    each relation with its owning task's string, tasks run inside
    {!Sanitize.with_writer} scopes, and every mutation
    ([add]/[remove]/[clear] — including no-op writes, since a task
    reaching for a foreign relation is a bug regardless of outcome)
    checks tag against the current scope. The scope lives in
    domain-local storage, so checks work unchanged when tasks run on
    worker domains. Untagged relations (the default) pay one field read
    per mutation. *)

module Sanitize : sig
  exception Violation of string
  (** Raised by a mutation of an owned relation from outside a matching
      writer scope; the message names the relation, its owner and the
      offending writer. *)

  val set_owner : relation -> name:string -> owner:string -> unit

  val clear_owner : relation -> unit

  val owner : relation -> string option

  val writer : unit -> string option
  (** The current domain's active writer tag, if any. *)

  val with_writer : string -> (unit -> 'a) -> 'a
  (** Run [f] with the current domain's writer tag set; restores the
      previous tag on exit (scopes nest). *)
end
