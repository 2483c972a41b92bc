open Core

(** The commutativity-aware semantic scheduler: SGT over the
    {!Commute}-filtered conflict relation.

    {!Sgt_core} over one slot per (variable, op): a prior access of
    another transaction only becomes a conflict edge (or a cycle-query
    source) when its op does {e not} commute with the requested step's
    per {!Commute.conflicts}. Two increments of the same counter, two
    bag inserts, two monotone maxes, or two reads order freely; the
    serialization graph never hears about them.

    On pure rw syntax nothing commutes (except Read/Read, which the
    untyped fragment cannot express), the filter is the identity, and
    the scheduler is decision-for-decision equal to {!Sgt} — pinned
    exhaustively in the tests. On typed syntax its fixpoint set is a
    strict superset of rw-SGT's; every admitted history is equivalent,
    under any interpretation respecting the declared commutativity, to
    a serial one (the extended Herbrand oracle checks this
    differentially: topological orders of the filtered graph preserve
    the layered commutative normal form). *)

val create : ?sink:Obs.Sink.t -> syntax:Syntax.t -> unit -> Scheduler.t
(** Constructor shape per the convention in {!Scheduler}; wake epoch
    and events as in {!Sgt} (a repeat access by the same transaction
    with the same op adds no edge), plus {!Obs.Event.Commute_pass} on a
    grant that skipped live same-variable accesses because every one
    commuted — the measured coordination saving. *)
