open Core

(** Online schedulers.

    The paper models a scheduler as a mapping from request histories to
    correct schedules, realised operationally: step-execution requests
    arrive one at a time (in each transaction's program order) and the
    scheduler must {e grant} the step now, {e delay} it (it is asked
    again once the scheduler's state has changed — see [epoch]), or
    {e abort} the requesting transaction (it restarts from its first
    step — how timestamp and optimistic-flavoured schedulers resolve
    conflicts).

    A scheduler instance is stateful; [attempt] must be free of
    observable side effects so the driver can poll delayed requests.

    {2 Constructor convention}

    Every scheduler module exposes a single constructor of the shape

    {[ val create : ?sink:Obs.Sink.t -> ... -> unit -> Scheduler.t ]}

    with the optional observability sink {e before} the labeled
    arguments and a trailing [unit]. The [unit] is not decoration: an
    optional argument is only "erased" (defaulted) when it is followed
    by a positional or [unit] parameter at the application site —
    without it, [create ~syntax] would be a partial application still
    waiting for [?sink], and OCaml's warning 16 flags the unerasable
    optional. Omitting the sink yields an untraced scheduler
    ([Obs.Sink.null], zero-cost: emission sites are guarded by
    {!Obs.Sink.on}). This rule is stated once here; the per-module
    [.mli]s document only which events each scheduler emits. *)

type response = Grant | Delay | Abort

type t = {
  name : string;
  attempt : Names.step_id -> response;
      (** Decide about the next step of a transaction. *)
  commit : Names.step_id -> unit;
      (** Record that the step was granted (always directly after an
          [attempt] that returned [Grant]). *)
  on_abort : int -> unit;
      (** The transaction restarts: discard all bookkeeping about it. *)
  victim : int list -> int option;
      (** Deadlock resolution: given the transactions blocked in a
          stall, choose one to abort ([None] = scheduler cannot resolve;
          the driver then fails). *)
  detect : (int * Names.step_id) list -> int option;
      (** Eager deadlock detection: given every blocked transaction with
          its pending step (youngest first), return a victim only when an
          abort is {e required} for progress — the blocked transactions
          mutually prevent each other from ever proceeding, as in a
          wait-for cycle under locking. Blockage that other transactions
          can still drain around (e.g. an SGT delay, which dooms the
          requester but impedes nobody else) must report [None]: the
          stall path aborts lazily, after everything able to finish has
          finished, which is strictly cheaper in restarts. Used by the
          timed simulation after every delay. *)
  epoch : (unit -> int) option;
      (** The wake epoch: a monotone counter under one contract — a
          [Delay] that [attempt] returned while the epoch read [w] would
          still be [Delay] for the same step as long as the epoch still
          reads [w]. The driver parks a delayed request at the epoch of
          its verdict and asks again only once the epoch has moved. A
          scheduler bumps it wherever a delay can turn into something
          else: a removal from a conflict graph, a lock release, an
          abort. [None]: the driver counts its own grants plus restarts,
          which is every call that can change a scheduler's state, so
          delayed requests are re-asked after every grant. *)
}

val make :
  name:string ->
  attempt:(Names.step_id -> response) ->
  commit:(Names.step_id -> unit) ->
  ?on_abort:(int -> unit) ->
  ?victim:(int list -> int option) ->
  ?detect:((int * Names.step_id) list -> int option) ->
  ?epoch:(unit -> int) ->
  unit ->
  t
(** Defaults: [on_abort] does nothing; [victim] picks the first blocked
    transaction; [detect] reports nothing; no [epoch] (the driver's
    grant-and-restart count stands in). A wrapper that rebuilds a
    scheduler with [make] must forward [epoch], or the driver silently
    falls back to re-asking after every grant.

    Why "first" is safe: {!Driver.resolve_stall} presents the stuck
    list {e youngest first} (sorted by arrival rank, descending), so the
    default victim is the youngest blocked transaction — exactly the
    wound-wait seniority order that guarantees termination (the oldest
    transaction is never chosen, so some transaction always survives
    long enough to finish). A scheduler supplying its own [victim] must
    preserve that property itself; see {!Tpl_sched.wait_for_victim}. *)

val wake_epoch : t -> changes:int -> int
(** The epoch a driver parks a delayed request at: the scheduler's
    [epoch], or [changes] — the driver's count of grants plus restarts —
    for a scheduler that declares none. {!Driver} and [Sim.Des] both
    park on it. *)
