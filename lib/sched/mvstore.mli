(** Versioned variable store shared by the multi-version engines
    ({!Mvcc}, {!Si}, {!Ssi}).

    Each variable carries a chain of committed versions stamped with
    the commit timestamp (a global counter 1, 2, ...) of the installing
    transaction; every variable is implicitly born at [initial_value]
    with timestamp 0. A transaction pins a snapshot timestamp when it
    begins, buffers its own writes privately, reads its own buffer
    first and otherwise the newest committed version at or before its
    snapshot, and installs its buffered writes atomically at commit.

    The store is policy-free: first-committer-wins and the SSI
    rw-antidependency probes are exposed as pure queries
    ({!ww_conflict}, {!newer_writers}, {!exists_concurrent_reader},
    {!retained_txn})
    that the engines combine into abort decisions.

    Nothing is rescanned per commit. The store keeps four indexes: a
    count of live transactions per snapshot timestamp with a
    forward-only minimum, a timestamp-ordered queue of superseded
    versions, a commit-ordered queue of retained committed records
    (with an id table), and per variable the transactions that read
    it. A commit costs amortised O(its writes + what it
    garbage-collects); an abort, and a transaction's first read of a
    variable, also walk that variable's reader list. The queries walk
    only the newest-first prefix of a chain that is newer than the
    snapshot, or one variable's readers. *)

type version = { value : int; writer : int; ts : int }

type txn = {
  id : int;
  snap : int;  (** snapshot timestamp, pinned at {!begin_txn} *)
  mutable reads : Core.Names.Vset.t;
      (** variables read from the store (own-buffer hits excluded) *)
  mutable writes : (Core.Names.var * int) list;  (** buffered, newest first *)
  mutable commit_ts : int option;
  mutable in_rw : bool;
      (** SSI: some concurrent transaction has an rw-antidependency
          edge into this one (sticky; survives into retention) *)
  mutable out_rw : bool;
      (** SSI: this transaction has an rw-antidependency edge out to
          some concurrent transaction *)
}

type t

val initial_value : int
(** The value every variable starts at — [0], matching
    [Analysis.History.initial_value] by convention (the obs/sched
    layers cannot depend on [Analysis]). *)

val create : unit -> t

val clock : t -> int
(** Current commit timestamp (0 before any commit). *)

val begin_txn : t -> int -> txn
(** Start (or restart) transaction [id] with snapshot [clock st]. A
    live incarnation of [id] is ended first, as by {!abort}. *)

val live_txn : t -> int -> txn option

val retained_txn : t -> int -> txn option
(** The committed record of [id], while a live snapshot is still
    concurrent with it: every installer of a version newer than some
    live snapshot is retained. *)

val snapshot : txn -> int
val commit_ts : txn -> int option

val read : t -> txn -> Core.Names.var -> int * int option
(** [read st t x] is [(value, writer)]: [t]'s own buffered write of [x]
    if any (writer [None]), else the newest committed version at or
    before [t]'s snapshot ([Some] its installer; [None] for the initial
    value). Store reads are recorded in [t.reads]. *)

val read_at : t -> Core.Names.var -> snap:int -> int
(** Pure snapshot read: newest committed value of the variable at or
    before [snap] ({!initial_value} when none) — the property the
    model-based store tests check. *)

val write : t -> txn -> Core.Names.var -> int
(** Buffer a globally fresh value for the variable; returns it. *)

val newest : t -> Core.Names.var -> version option
val chain : t -> Core.Names.var -> version list
(** Committed versions, newest first (pruned tail excluded). *)

val ww_conflict :
  t -> snap:int -> excluding:int -> Core.Names.var list -> Core.Names.var option
(** First-committer-wins probe: a variable among [vars] carrying a
    committed version newer than [snap] installed by a transaction
    other than [excluding], if any. Pure. *)

val newer_writers : t -> Core.Names.var -> than:int -> excluding:int -> int list
(** Distinct installers of committed versions of the variable newer
    than [than] — the targets of rw-antidependency edges out of a
    transaction that read it under snapshot [than]. Pure. *)

val exists_newer_writer :
  t -> Core.Names.var -> than:int -> excluding:int -> (int -> bool) -> bool
(** Whether [p] holds for the installer of some committed version of
    the variable newer than [than], other than [excluding]; the
    list-free form of {!newer_writers}. Pure. *)

val exists_concurrent_reader :
  t -> Core.Names.var -> snap:int -> excluding:int -> (txn -> bool) -> bool
(** Whether [p] holds for some transaction other than [excluding] that
    read the variable from the store (own-buffer hits excluded) and is
    concurrent with snapshot [snap]: live, or committed after [snap].
    Walks the variable's reader index only. [snap] must be at or above
    {!min_live_snapshot} (the clock when nothing is live), as every
    live transaction's snapshot is. Pure. *)

val min_live_snapshot : t -> int option

val commit : t -> txn -> int
(** Install the buffered writes (newest value per variable) at a fresh
    commit timestamp, retain the record, garbage-collect, and return
    the timestamp. The caller decides admissibility first. Raises
    [Invalid_argument] unless the record is live. *)

val abort : t -> txn -> unit
(** Drop the live record (buffered writes and flags die with it); a
    no-op on a record that is no longer live. *)
