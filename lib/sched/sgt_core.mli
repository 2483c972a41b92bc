open Core

(** The serialization-graph-testing admission core (Theorem 3): grant a
    step iff the conflict graph of the granted prefix stays acyclic.
    {!Sgt}, {!Semantic} and every shard of {!Sharded} run this module.

    The conflict relation is data. Each step records into one {e slot},
    and [conflicts.(s)] lists the slots whose accessors become edge
    sources for a step in slot [s]: granting it adds [u -> v] for every
    other accessor [u] of those slots. {!Sgt} and each shard use one slot
    per variable, conflicting with itself only ({!same_slot});
    {!Semantic} uses one slot per (variable, op), listing the
    same-variable slots whose ops conflict per {!Commute.conflicts}.

    The graph lives on {!Digraph.Acyclic} (Pearce–Kelly order): the
    admission test is one reachability query over the slot lists,
    bounded by the affected window of the order. Between removals
    (aborts and prunes) the graph and the accessor lists only grow, and
    growing either never turns a cycle-closing request grantable, so
    the removal count is the wake epoch. A
    completed transaction never gains an incoming edge, so once a
    source it can never lie on a cycle and is pruned.

    Vertices are [0 .. n-1]; [label] maps them to the transaction ids
    that {!Obs.Event.Edge_added} and {!Obs.Event.Cycle_refused} carry. *)

type t

val create :
  ?sink:Obs.Sink.t ->
  ?label:int array ->
  n:int ->
  conflicts:int array array ->
  unit ->
  t
(** [n] vertices, [Array.length conflicts] slots; [label] defaults to
    the identity. *)

val same_slot : int -> int array array
(** [k] slots, each conflicting with itself only. *)

val var_slots : Syntax.t -> int array array * int
(** One slot per variable, numbered in step order: the slot of step
    [(i, j)] at [.(i).(j)], and the number of slots. *)

val removals : t -> int
(** Aborts plus prunes so far. *)

val closes_cycle : t -> int -> int -> bool
(** [closes_cycle t v slot]: would recording [v] into [slot] close a
    cycle? *)

val refuse : t -> int -> int -> unit
(** [refuse t v idx] emits {!Obs.Event.Cycle_refused} for step [idx] of
    [v]. *)

val fresh : t -> int -> int -> bool
(** [fresh t v slot]: [v] is not yet an accessor of [slot]. *)

val record : t -> int -> int -> unit
(** [record t v slot]: the edges from every conflicting accessor to
    [v], then [v] joins [slot]. A repeat access adds no edge: each
    other accessor [u] met [v] there before, so [u -> v] or [v -> u] is
    in the graph, and admission has just ruled out any path [v ~> u]. *)

val finish : t -> int -> unit
(** Marks [v] completed, then {!prune}s. *)

val prune : t -> unit
(** Forgets completed sources, lowest vertex first, until none is left. *)

val abort : t -> int -> unit
(** [v] leaves its slots and the graph and is no longer completed. *)

val accessors : t -> int -> int list
(** The vertices recorded in a slot, newest first. *)

val new_paths :
  t -> int -> int -> vertices:int array -> ids:int array -> int list * int list
(** [new_paths t v slot ~vertices ~ids]: the ends of the paths that
    recording [v] into [slot] would create, among the active
    [vertices.(k)] other than [v], as their [ids.(k)]: first those that
    are or reach an accessor [u] of a conflicting slot, then those [v]
    reaches — every new path runs [a ~> u -> v ~> b]. Both are empty
    when no conflicting slot has an accessor. *)

val scheduler :
  name:string ->
  ?on_commit:(Names.step_id -> int -> unit) ->
  t ->
  slot_of_step:int array array ->
  fmt:int array ->
  Scheduler.t
(** Step [(i, j)] records into [slot_of_step.(i).(j)]: attempt is
    {!closes_cycle} (refusing); commit is {!record},
    [on_commit id slot], and {!finish} after the final step; the wake
    epoch is {!removals}. No eager [detect]: a delayed request blocks
    nobody, and aborting each freshly doomed requester only replays it
    into the same conflicts, so the driver's lazy stall path is
    cheaper. *)
