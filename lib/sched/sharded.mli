open Core

(** The sharded serialization-graph-testing engine.

    Variables are partitioned across K shards ({!Partition}); each shard
    runs the incremental SGT admission test of {!Sgt} on its own private
    conflict graph over shard-local transaction ids. Because every
    conflict edge joins two accessors of one variable, every edge lives
    in exactly one shard, and a request from a {e single-shard}
    transaction is decided entirely inside its home shard — no shared
    state is touched, which is where the engine scales with the
    partition instead of the global history.

    Only {e cross-shard} transactions escalate to the coordinator: a
    summary graph over the cross-shard transactions on the same
    {!Digraph.Acyclic} structure, where an edge [a -> b] records an
    intra-shard path from [a] to [b] in some shard. The global conflict
    graph is acyclic iff every shard graph is acyclic and the summary
    graph is acyclic (a global cycle decomposes into intra-shard path
    segments whose boundary vertices are cross-shard transactions).
    Admission batches the candidate summary edges of a request into
    per-target {!Digraph.Acyclic.closes_cycle_any} queries; summary
    edges are kept until an endpoint aborts (a conservative
    superset — stale paths can only over-delay, never admit a cycle).

    Single-shard completed source transactions are pruned per shard
    exactly as in {!Sgt}; cross-shard transactions are never pruned (a
    shard-local in-degree of zero says nothing about their edges in
    other shards). With [shards = 1] — or on any workload where every
    transaction is single-shard — there are no cross-shard transactions,
    the coordinator is never consulted, and the engine's decisions,
    statistics and fixpoint set coincide exactly with {!Sgt}'s. *)

val create :
  ?sink:Obs.Sink.t ->
  ?shards:int ->
  ?commit_cross:(tx:int -> shards:int list -> bool) ->
  syntax:Syntax.t ->
  unit ->
  Scheduler.t
(** [shards] defaults to 4. With a [sink], each fresh (non-cached)
    request emits {!Obs.Event.Shard_routed} with the owning shard,
    admitted intra-shard conflict edges emit {!Obs.Event.Edge_added} and
    fresh refusals emit {!Obs.Event.Cycle_refused}, all with global
    transaction ids. Constructor shape per the convention in
    {!Scheduler}. Raises [Invalid_argument] unless [1 <= shards <= 62].
    The wake epoch moves whenever any shard's removal version or the
    coordinator's does.

    [commit_cross] is the distributed atomic-commit hook: when the
    {e final} step of a {e cross-shard} transaction passes admission,
    the hook runs one commit round over the transaction's touched
    shards (typically {!Twopc.commit} of a {!Twopc.service}); [false]
    turns the grant into [Abort], handing the transaction back to the
    driver for a restart — the scheduler-abort path, identical to a
    certification refusal. The hook fires only on that terminal success
    path (never while polling a cached delay), so a fault-free hook
    that always answers [true] — or no hook at all — yields
    bit-identical decisions, statistics and commit sets.
    Single-shard transactions never consult it: their conflicts are
    provably local, so they commit without coordination — the
    coordination-avoidance boundary made executable. *)
