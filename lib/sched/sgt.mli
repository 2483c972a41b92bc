open Core

(** The serialization-graph-testing scheduler — the {e realised} optimal
    scheduler for complete syntactic information (Theorem 3).

    Maintains the conflict graph of the granted prefix and grants a step
    iff the graph stays acyclic. Because conflict serializability is
    prefix-closed and coincides with the Herbrand notion [SR(T)] in the
    paper's step model, the fixpoint set of this scheduler is exactly
    [SR(T)]. A request that would close a cycle can never succeed later
    (edges only accumulate), so stalls are resolved by aborting the
    requester, whose edges are then removed.

    The conflict graph is maintained {e incrementally} on
    {!Digraph.Acyclic} (Pearce–Kelly dynamic topological order): the
    admission test is a single reachability query bounded by the
    affected window of the order, commits extend the graph in place, and
    pruning/aborts remove a vertex without a rebuild. {!Sgt_ref} keeps
    the original copy-and-recheck implementation as the differential
    oracle. *)

val create : ?sink:Obs.Sink.t -> syntax:Syntax.t -> unit -> Scheduler.t
(** The wake epoch is the count of removals (aborts and prunes): a
    refused request stays refused until one happens.

    With a [sink], the conflict edges a transaction's first access to a
    variable induces emit {!Obs.Event.Edge_added} (a repeat access
    induces none: its edges are already in the graph) and fresh cycle
    refusals emit {!Obs.Event.Cycle_refused} (cached delay re-verdicts
    stay silent — they never touch the graph). Timestamps come from the driving
    loop's {!Obs.Sink.set_now}. Constructor shape per the convention in
    {!Scheduler}. *)
