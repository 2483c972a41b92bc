(** Directed graphs over integer vertices [0 .. n-1].

    Substrate for the conflict (serialization) graphs of Section 4, the
    wait-for graphs of the lock manager, and block-connectivity checks in
    the locking geometry. Mutable adjacency-set representation; all
    algorithms are deterministic. *)

type t

val create : int -> t
(** [create n] is an empty graph with vertices [0 .. n-1]. *)

val n_vertices : t -> int

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] adds edge [u → v]. Idempotent. Self-loops allowed
    (and count as cycles). Raises [Invalid_argument] on out-of-range
    vertices. *)

val remove_edge : t -> int -> int -> unit

val has_edge : t -> int -> int -> bool

val succ : t -> int -> int list
(** Successors in increasing order. *)

val pred : t -> int -> int list
(** Predecessors in increasing order (computed). *)

val edges : t -> (int * int) list
(** All edges, lexicographically ordered. *)

val n_edges : t -> int

val copy : t -> t

val has_cycle : t -> bool
(** [true] iff the graph contains a directed cycle (self-loops count). *)

val topological_sort : t -> int array option
(** [Some order] listing vertices such that every edge goes forward, or
    [None] if the graph is cyclic. Kahn's algorithm; ties broken by
    smallest vertex for determinism. *)

val scc : t -> int array
(** [scc g] labels each vertex with the index of its strongly connected
    component (Tarjan). Component indices are in reverse topological
    order of the condensation. *)

val find_cycle : t -> int list option
(** [find_cycle g] returns the vertices of some directed cycle in order
    (first vertex repeated implicitly), or [None]. Used to pick deadlock
    victims from wait-for graphs. *)

val reachable : t -> int -> bool array
(** [reachable g u] marks every vertex reachable from [u] (including
    [u]). *)

val transitive_closure : t -> t
(** A new graph with an edge [u → v] whenever [v] is reachable from [u]
    by a non-empty path. *)

val undirected_components : t -> int array
(** Connected components ignoring edge direction; labels as in {!scc}. *)

val pp : Format.formatter -> t -> unit

type graph = t
(** Alias so {!Acyclic} can refer to the plain graph type. *)

(** Online (incremental) acyclicity via the Pearce–Kelly dynamic
    topological order. The structure maintains the invariant that the
    graph is acyclic: {!Acyclic.add_edge_acyclic} refuses — with a cycle
    witness — any edge that would break it, in time proportional to the
    {e affected region} of the topological order rather than the whole
    graph. Edge and vertex removals are O(degree) and never trigger a
    reordering (deleting edges cannot invalidate a topological order).

    This is the substrate for the serialization-graph scheduler's hot
    path: one admission test per request, no graph copies, no full
    cycle-detection reruns. *)
module Acyclic : sig
  type t

  val create : int -> t
  (** [create n] is the empty acyclic graph on vertices [0 .. n-1], with
      the identity topological order. *)

  val n_vertices : t -> int
  val n_edges : t -> int
  val has_edge : t -> int -> int -> bool

  val succ : t -> int -> int list
  (** Successors in increasing vertex order. *)

  val pred : t -> int -> int list
  (** Predecessors in increasing vertex order (stored, O(degree)). *)

  val in_degree : t -> int -> int
  (** Number of predecessors, without materialising them. *)

  val edges : t -> (int * int) list
  (** All edges, lexicographically ordered. *)

  val add_edge_acyclic : t -> int -> int -> (unit, int list) result
  (** [add_edge_acyclic g u v] adds edge [u → v] if the graph stays
      acyclic and returns [Ok ()] (idempotent on existing edges).
      Otherwise the graph is unchanged and [Error path] returns a cycle
      witness: vertices [v; ...; u] forming a path [v → ... → u] that the
      refused edge [u → v] would close. A self-loop yields [Error [u]]. *)

  val closes_cycle : t -> int -> int -> bool
  (** [closes_cycle g u v] is [true] iff adding [u → v] would create a
      cycle. Pure query: the graph is never modified. *)

  val closes_cycle_any :
    ?excluding:int -> t -> sources:int list -> target:int -> bool
  (** [closes_cycle_any g ~sources ~target]: would adding {e all} edges
      [u → target], [u ∈ sources], create a cycle? Since every new edge
      ends at [target], this holds iff some source is reachable from
      [target] (or is [target] itself); the search is bounded by the
      topological-order window, one pass for the whole edge batch.
      [?excluding] drops one vertex from [sources] without the caller
      having to build a filtered list (the SGT scheduler passes a
      variable's accessor list, which may include the requester). Pure
      query: the graph is never modified, and nothing is allocated. *)

  val closes_cycle_among :
    ?excluding:int ->
    t ->
    lists:int list array ->
    among:int array ->
    target:int ->
    bool
  (** {!closes_cycle_any} over the union of the source lists
      [lists.(among.(k))], without building it: one search, nothing
      allocated. *)

  val remove_edge : t -> int -> int -> unit

  val remove_vertex : t -> int -> unit
  (** Remove every edge incident to the vertex (the vertex itself stays,
      isolated — vertex sets are fixed at creation). *)

  val topological_order : t -> int array
  (** The maintained topological order, as an array of vertices. Fresh
      copy; every edge [u → v] has [u] before [v] in it. *)

  val to_digraph : t -> graph
  (** Snapshot into a plain {!type:graph} (for algorithms the incremental
      structure does not provide). *)
end
