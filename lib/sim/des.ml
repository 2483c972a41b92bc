open Core

type params = {
  arrival_rate : float;
  exec_time : float;
  sched_time : float;
  seed : int;
}

type result = {
  n_transactions : int;
  makespan : float;
  throughput : float;
  avg_latency : float;
  avg_scheduling : float;
  avg_waiting : float;
  avg_execution : float;
  restarts : int;
  deadlocks : int;
}

(* Future external events, ordered by time (with a tiebreaking id). *)
module Events = Set.Make (struct
  type t = float * int * [ `Arrival of int | `Resubmit of int | `Step_done of int ]

  let compare (t1, i1, _) (t2, i2, _) =
    match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c
end)

type tx_stats = {
  mutable arrival : float;
  mutable completion : float;
  mutable scheduling : float;
  mutable waiting : float;
  mutable execution : float;
}

let exponential st rate = -.log (1. -. Random.State.float st 1.) /. rate

let run ?(sink = Obs.Sink.null) params ~syntax ~scheduler =
  let fmt = Syntax.format syntax in
  let n = Array.length fmt in
  let sched = scheduler () in
  let st = Random.State.make [| params.seed |] in
  let stats =
    Array.init n (fun _ ->
        {
          arrival = 0.;
          completion = 0.;
          scheduling = 0.;
          waiting = 0.;
          execution = 0.;
        })
  in
  let grants = ref 0 and restarts = ref 0 and deadlocks = ref 0 in
  let tx_restarts = Array.make n 0 in
  let next_step = Array.make n 0 in
  let events = ref Events.empty in
  let event_id = ref 0 in
  let add_event t e =
    incr event_id;
    events := Events.add (t, !event_id, e) !events
  in
  (* Poisson arrivals *)
  let t = ref 0. in
  for i = 0 to n - 1 do
    t := !t +. exponential st params.arrival_rate;
    add_event !t (`Arrival i)
  done;
  (* the scheduler's FIFO request queue, and the parked list: each
     delayed request with the wake epoch of its verdict *)
  let queue : (int * float) Queue.t = Queue.create () in
  let parked : (int * float * int) Queue.t = Queue.create () in
  let epoch () =
    Sched.Scheduler.wake_epoch sched ~changes:(!grants + !restarts)
  in
  let sched_free = ref 0. in
  let done_count = ref 0 in
  let makespan = ref 0. in
  let submit tx time =
    if Obs.Sink.on sink then
      Obs.Sink.record_at sink time
        (Obs.Event.Submitted { tx; idx = next_step.(tx) });
    Queue.add (tx, time) queue
  in
  (* As in {!Sched.Driver}, a parked request goes back to the queue only
     once the wake epoch has moved past its stamp: until then it would be
     refused again. [victim] leaves the parked list without requeueing.
     The parked span is the paper's waiting time. *)
  let unpark ?(victim = -1) now =
    let e = epoch () in
    let still = Queue.create () in
    Queue.iter
      (fun ((tx, since, stamp) as p) ->
        if stamp = e && tx <> victim then Queue.add p still
        else begin
          stats.(tx).waiting <- stats.(tx).waiting +. (now -. since);
          if tx <> victim then Queue.add (tx, now) queue
        end)
      parked;
    Queue.clear parked;
    Queue.transfer still parked
  in
  (* Victim-candidate lists follow the driver's convention: youngest
     first (latest arrival first), so a scheduler that prefers early
     candidates never victimizes the most senior live transaction.
     Presenting the parked queue oldest-first instead makes the eager
     detector abort the longest-waiting transaction over and over —
     wound-wait inverted, thrashing restarts into the thousands on
     contended workloads. *)
  let by_seniority txs =
    List.stable_sort
      (fun a b -> Float.compare stats.(b).arrival stats.(a).arrival)
      txs
  in
  let blocked () =
    Queue.fold (fun acc (tx, _, _) -> tx :: acc) [] parked
    |> List.rev |> by_seniority
  in
  (* abort [v] at time [now]: release its bookkeeping, resubmit it with
     backoff and give the requests the abort may unblock an immediate
     retry *)
  let abort_victim now v =
    incr deadlocks;
    incr restarts;
    tx_restarts.(v) <- tx_restarts.(v) + 1;
    if Obs.Sink.on sink then begin
      Obs.Sink.record_at sink now
        (Obs.Event.Aborted { tx = v; reason = Obs.Event.Deadlock });
      Obs.Sink.record_at sink now (Obs.Event.Restarted { tx = v })
    end;
    sched.Sched.Scheduler.on_abort v;
    next_step.(v) <- 0;
    unpark ~victim:v now;
    (* back off by whole scheduling round-trips, not just execution
       time: with sched_time dominating, an exec-scaled backoff lets the
       victim re-enter the queue before any waiter has even been served
       once, and two restarted juniors can starve a senior by
       alternately re-acquiring the contested lock — thousands of
       rotation aborts before a linear exec-time backoff grows past one
       service time *)
    let backoff =
      (params.sched_time +. params.exec_time) *. float_of_int tx_restarts.(v)
    in
    add_event (now +. backoff) (`Resubmit v)
  in
  let serve () =
    (* serve the queue head; returns the decision completion time *)
    let tx, submitted = Queue.pop queue in
    let start = Float.max submitted !sched_free in
    let decided = start +. params.sched_time in
    sched_free := decided;
    stats.(tx).scheduling <-
      stats.(tx).scheduling +. (start -. submitted) +. params.sched_time;
    let id = Names.step tx next_step.(tx) in
    (* scheduler-internal emissions (edges, locks, wounds) happen during
       [attempt]/[commit]/[detect]; stamp them with the decision time *)
    Obs.Sink.set_now sink decided;
    match sched.Sched.Scheduler.attempt id with
    | Sched.Scheduler.Grant ->
      if Obs.Sink.on sink then
        Obs.Sink.record_at sink decided
          (Obs.Event.Granted { tx; idx = next_step.(tx) });
      sched.Sched.Scheduler.commit id;
      incr grants;
      next_step.(tx) <- next_step.(tx) + 1;
      stats.(tx).execution <- stats.(tx).execution +. params.exec_time;
      add_event (decided +. params.exec_time) (`Step_done tx);
      unpark decided
    | Sched.Scheduler.Delay -> (
      if Obs.Sink.on sink then
        Obs.Sink.record_at sink decided
          (Obs.Event.Delayed { tx; idx = next_step.(tx) });
      Queue.add (tx, decided, epoch ()) parked;
      (* eager deadlock detection: do not let a doomed request sit in
         the parked list until the end of the run *)
      match
        sched.Sched.Scheduler.detect
          (List.map (fun tx -> (tx, Names.step tx next_step.(tx))) (blocked ()))
      with
      | None -> ()
      | Some v -> abort_victim decided v)
    | Sched.Scheduler.Abort ->
      incr restarts;
      tx_restarts.(tx) <- tx_restarts.(tx) + 1;
      if Obs.Sink.on sink then begin
        Obs.Sink.record_at sink decided
          (Obs.Event.Aborted { tx; reason = Obs.Event.Scheduler_abort });
        Obs.Sink.record_at sink decided (Obs.Event.Restarted { tx })
      end;
      sched.Sched.Scheduler.on_abort tx;
      next_step.(tx) <- 0;
      (* restart with backoff: without it, two timestamp-ordered
         transactions on a hot spot abort each other forever; scaled by
         the full service round-trip as in [abort_victim] *)
      let backoff =
        (params.sched_time +. params.exec_time)
        *. float_of_int tx_restarts.(tx)
      in
      add_event (decided +. backoff) (`Resubmit tx);
      unpark decided
  in
  let rec loop () =
    (* next external event vs. next possible scheduler service *)
    let next_ev = Events.min_elt_opt !events in
    let can_serve = not (Queue.is_empty queue) in
    match next_ev, can_serve with
    | None, false ->
      if Queue.is_empty parked then ()
      else begin
        (* stall: every open request is parked *)
        Obs.Sink.set_now sink !sched_free;
        match sched.Sched.Scheduler.victim (blocked ()) with
        | None ->
          raise
            (Sched.Driver.Stall
               ("des: scheduler " ^ sched.Sched.Scheduler.name
              ^ " cannot resolve a stall"))
        | Some v ->
          abort_victim !sched_free v;
          loop ()
      end
    | Some ((te, _, ev) as entry), serveable ->
      let service_time =
        if serveable then
          let _, submitted = Queue.peek queue in
          Some (Float.max submitted !sched_free)
        else None
      in
      (match service_time with
      | Some ts when ts <= te ->
        serve ()
      | Some _ | None -> (
        events := Events.remove entry !events;
        match ev with
        | `Arrival tx ->
          stats.(tx).arrival <- te;
          if fmt.(tx) = 0 then begin
            stats.(tx).completion <- te;
            makespan := Float.max !makespan te;
            incr done_count;
            if Obs.Sink.on sink then
              Obs.Sink.record_at sink te (Obs.Event.Committed { tx })
          end
          else submit tx te
        | `Resubmit tx -> submit tx te
        | `Step_done tx ->
          if Obs.Sink.on sink then
            Obs.Sink.record_at sink te
              (Obs.Event.Executed { tx; idx = next_step.(tx) - 1 });
          if next_step.(tx) >= fmt.(tx) then begin
            stats.(tx).completion <- te;
            makespan := Float.max !makespan te;
            incr done_count;
            if Obs.Sink.on sink then
              Obs.Sink.record_at sink te (Obs.Event.Committed { tx })
          end
          else submit tx te));
      loop ()
    | None, true ->
      serve ();
      loop ()
  in
  loop ();
  if !done_count <> n then
    raise (Sched.Driver.Stall "des: incomplete simulation");
  let sum f = Array.fold_left (fun acc s -> acc +. f s) 0. stats in
  let fn = float_of_int n in
  let total_latency = sum (fun s -> s.completion -. s.arrival) in
  let total_sched = sum (fun s -> s.scheduling) in
  let total_wait = sum (fun s -> s.waiting) in
  let total_exec = sum (fun s -> s.execution) in
  {
    n_transactions = n;
    makespan = !makespan;
    throughput = (if !makespan > 0. then fn /. !makespan else 0.);
    avg_latency = total_latency /. fn;
    (* the residual latency - sched - wait - exec is idle overlap between
       a step's completion and the next decision; with instantaneous
       resubmission it is zero per construction *)
    avg_scheduling = total_sched /. fn;
    avg_waiting = total_wait /. fn;
    avg_execution = total_exec /. fn;
    restarts = !restarts;
    deadlocks = !deadlocks;
  }

let pp_result ppf r =
  Format.fprintf ppf
    "n=%d makespan=%.2f thru=%.3f latency=%.2f = sched %.2f + wait %.2f + \
     exec %.2f  (restarts %d, deadlocks %d)"
    r.n_transactions r.makespan r.throughput r.avg_latency r.avg_scheduling
    r.avg_waiting r.avg_execution r.restarts r.deadlocks
