(** Discrete-event simulation of the Section 6 environment.

    Multiple users at terminals run transactions that arrive over time
    (Poisson); a single {e central} scheduler serves one decision at a
    time. The time to carry out a step splits exactly as in the paper:

    - {b scheduling time}: waiting for the scheduler to become free plus
      the (constant) time it takes to decide;
    - {b waiting time}: parked by the scheduler until other users' steps
      complete (plus re-decisions after aborts);
    - {b execution time}: the (constant) time the step itself takes,
      assumed independent of the scheduler; executions of different
      users overlap.

    The simulation drives any {!Sched.Scheduler.t}. A delayed request is
    parked at the scheduler's wake epoch ({!Sched.Scheduler.wake_epoch},
    with the simulation's grants plus restarts as the fallback count) and
    queued for a new decision only once a grant or an abort has moved
    that epoch, as {!Sched.Driver} does; aborts restart the transaction,
    and full stalls are resolved through the scheduler's victim choice. *)

type params = {
  arrival_rate : float;   (** transactions per time unit (Poisson) *)
  exec_time : float;      (** per step *)
  sched_time : float;     (** per decision *)
  seed : int;
}

type result = {
  n_transactions : int;
  makespan : float;
  throughput : float;        (** completed transactions per time unit *)
  avg_latency : float;       (** arrival → commit *)
  avg_scheduling : float;    (** per transaction *)
  avg_waiting : float;
  avg_execution : float;
  restarts : int;
  deadlocks : int;
}

val run :
  ?sink:Obs.Sink.t ->
  params ->
  syntax:Core.Syntax.t ->
  scheduler:(unit -> Sched.Scheduler.t) ->
  result
(** Simulates every transaction of the syntax exactly once (arrivals in
    transaction order at Poisson instants). The decomposition satisfies
    [latency ≈ scheduling + waiting + exec] per transaction.
    Raises {!Sched.Driver.Stall} if the scheduler cannot resolve a
    stall.

    With a [sink], the full request lifecycle is emitted at virtual
    time: [Submitted] at each (re)submission, [Granted]/[Delayed] at
    the decision instant, [Aborted]+[Restarted] on scheduler aborts
    (reason [Scheduler_abort]) and deadlock victims (reason
    [Deadlock]), [Executed] when a step's execution completes and
    [Committed] at transaction completion. On the folded trace,
    [Fold.counters] reproduces [restarts], [deadlocks] and a commit
    per transaction exactly. Emission order follows simulation
    causality, but [Executed] timestamps interleave with later
    decisions — sort by timestamp before exporting. *)

val pp_result : Format.formatter -> result -> unit
