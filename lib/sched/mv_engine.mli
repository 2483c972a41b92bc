(** Shared skeleton of the multi-version engines over {!Mvstore}.

    A policy record selects the admission rules; {!Mvcc}, {!Si} and
    {!Ssi} are thin instantiations. All abort decisions are pure
    queries made at the transaction's final step, over the store's
    indexes (see {!Mvstore}), so asking again changes nothing.

    The engines declare no wake epoch. The driver parks a delayed
    request until the scheduler's epoch moves, and for an engine
    without one it re-asks on its own grant-and-restart count. These
    engines never render [Delay] — every verdict is Grant or Abort — so
    nothing is ever parked and no epoch is needed. See the per-engine
    [.mli]s for semantics and emitted events. *)

type policy = {
  name : string;
  fcw : bool;  (** first-committer-wins abort on overlapping writes *)
  ssi : bool;  (** Fekete dangerous-structure (pivot) abort *)
}

val create :
  policy -> ?sink:Obs.Sink.t -> syntax:Core.Syntax.t -> unit -> Scheduler.t
