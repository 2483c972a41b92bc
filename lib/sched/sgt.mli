open Core

(** The serialization-graph-testing scheduler — the {e realised} optimal
    scheduler for complete syntactic information (Theorem 3).

    Grants a step iff the conflict graph of the granted prefix stays
    acyclic. Because conflict serializability is prefix-closed and
    coincides with the Herbrand notion [SR(T)] in the paper's step
    model, the fixpoint set of this scheduler is exactly [SR(T)]. A
    request that would close a cycle can never succeed later (edges only
    accumulate), so stalls are resolved by aborting the requester, whose
    edges are then removed.

    {!Sgt_core} over one slot per variable: the incremental graph and
    pruning live there. {!Sgt_ref} keeps
    the original copy-and-recheck implementation as the differential
    oracle. *)

val create : ?sink:Obs.Sink.t -> syntax:Syntax.t -> unit -> Scheduler.t
(** The wake epoch is the count of removals (aborts and prunes): a
    refused request stays refused until one happens.

    With a [sink], the conflict edges a transaction's first access to a
    variable induces emit {!Obs.Event.Edge_added} (a repeat access
    induces none) and every cycle refusal emits
    {!Obs.Event.Cycle_refused}.
    Constructor shape per the convention in {!Scheduler}. *)
