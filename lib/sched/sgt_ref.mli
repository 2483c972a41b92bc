open Core

(** The brute-force reference SGT scheduler.

    Semantically identical to {!Sgt} but structured the naive way: the
    admission test copies the whole conflict graph, adds the candidate
    edges and reruns full DFS cycle detection; pruning rebuilds the
    graph from scratch; the per-variable access history keeps duplicate
    entries. Kept as the oracle for differential tests (decision-for-
    decision equivalence with the incremental scheduler) and as the
    baseline in the scheduler micro-benchmark. Its wake epoch counts
    removals, as {!Sgt}'s does, so the two stay attempt-for-attempt
    equal under the parking driver. *)

val create : syntax:Syntax.t -> Scheduler.t
