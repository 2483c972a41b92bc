open Core

type stats = {
  output : Schedule.t;
  delays : int;
  restarts : int;
  deadlocks : int;
  waiting : int;
  grants : int;
  aborts : int array;
}

let zero_delay s = s.delays = 0 && s.restarts = 0

exception Stall of string

type state = {
  sched : Scheduler.t;
  sink : Obs.Sink.t;
  fmt : int array;
  next_step : int array;       (* next step index, current incarnation *)
  outstanding : int array;     (* submitted but ungranted requests *)
  (* submission clocks, a FIFO ring per transaction: a transaction never
     has more than [fmt.(i)] requests in flight, so capacity is fixed
     and pushes/pops allocate nothing *)
  submit_times : int array array;
  submit_head : int array;
  submit_len : int array;
  incarnation : int array;
  arrival_rank : int array;    (* fixed seniority: first-submission order *)
  mutable arrived : int;
  mutable submissions : int;   (* total submit calls, for the drain budget *)
  blocked : Intq.t;            (* FIFO of delayed transactions *)
  (* [parked.(i)]: the wake epoch at which [i]'s pending request was
     last delayed, -1 when it has no standing verdict. A queued
     transaction whose stamp equals the current epoch would be refused
     again, so the queue scan skips it. *)
  parked : int array;
  mutable n_done : int;        (* transactions with [completed] true *)
  (* the grant log, one slot per grant in grant order: step and the
     incarnation that made it; grown by doubling past the preallocated
     [sum fmt] (re-executions after aborts) *)
  mutable log_tx : int array;
  mutable log_idx : int array;
  mutable log_inc : int array;
  mutable clock : int;         (* driver events *)
  mutable delays : int;
  mutable restarts : int;
  mutable deadlocks : int;
  mutable waiting : int;
  mutable grants : int;
}

let init sched sink fmt =
  let n = Array.length fmt in
  let steps = max 1 (Array.fold_left ( + ) 0 fmt) in
  {
    sched;
    sink;
    fmt;
    next_step = Array.make n 0;
    outstanding = Array.make n 0;
    submit_times = Array.init n (fun i -> Array.make (max 1 fmt.(i)) 0);
    submit_head = Array.make n 0;
    submit_len = Array.make n 0;
    incarnation = Array.make n 0;
    arrival_rank = Array.make n (-1);
    arrived = 0;
    submissions = 0;
    blocked = Intq.create n;
    parked = Array.make n (-1);
    (* a zero-step transaction is complete before anything arrives *)
    n_done = Array.fold_left (fun k m -> if m = 0 then k + 1 else k) 0 fmt;
    log_tx = Array.make steps 0;
    log_idx = Array.make steps 0;
    log_inc = Array.make steps 0;
    clock = 0;
    delays = 0;
    restarts = 0;
    deadlocks = 0;
    waiting = 0;
    grants = 0;
  }

let submit_push st i t =
  let buf = st.submit_times.(i) in
  let cap = Array.length buf in
  assert (st.submit_len.(i) < cap);
  buf.((st.submit_head.(i) + st.submit_len.(i)) mod cap) <- t;
  st.submit_len.(i) <- st.submit_len.(i) + 1

let submit_pop st i =
  assert (st.submit_len.(i) > 0);
  let buf = st.submit_times.(i) in
  let t = buf.(st.submit_head.(i)) in
  st.submit_head.(i) <- (st.submit_head.(i) + 1) mod Array.length buf;
  st.submit_len.(i) <- st.submit_len.(i) - 1;
  t

let in_queue st i = Intq.mem st.blocked i
let enqueue st i = Intq.push st.blocked i
let dequeue st i = Intq.remove st.blocked i

let completed st i =
  st.next_step.(i) >= st.fmt.(i) && st.outstanding.(i) = 0

let epoch st = Scheduler.wake_epoch st.sched ~changes:(st.grants + st.restarts)

let log_grant st (id : Names.step_id) =
  let k = st.grants in
  if k = Array.length st.log_tx then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    st.log_tx <- grow st.log_tx;
    st.log_idx <- grow st.log_idx;
    st.log_inc <- grow st.log_inc
  end;
  st.log_tx.(k) <- id.Names.tx;
  st.log_idx.(k) <- id.Names.idx;
  st.log_inc.(k) <- st.incarnation.(id.Names.tx)

(* Only a transaction with an outstanding request is ever aborted (a
   refused attempt, or a stall victim from the stuck list), so an abort
   never un-completes one and [n_done] needs no decrement. *)
let do_abort st ~reason i =
  st.parked.(i) <- -1;
  st.restarts <- st.restarts + 1;
  if Obs.Sink.on st.sink then begin
    Obs.Sink.record st.sink (Obs.Event.Aborted { tx = i; reason });
    Obs.Sink.record st.sink (Obs.Event.Restarted { tx = i })
  end;
  st.sched.Scheduler.on_abort i;
  (* every already-granted step must be requested again *)
  let granted = st.next_step.(i) in
  st.next_step.(i) <- 0;
  st.outstanding.(i) <- st.outstanding.(i) + granted;
  for k = 1 to granted do
    submit_push st i st.clock;
    if Obs.Sink.on st.sink then
      Obs.Sink.record st.sink (Obs.Event.Submitted { tx = i; idx = k - 1 })
  done;
  st.incarnation.(i) <- st.incarnation.(i) + 1

let do_grant st (id : Names.step_id) =
  (* [Granted] is stamped at the decision instant, [Executed] one tick
     later: the driver's clock tick is the grant being carried out, so
     the trace shows one event of execution time per grant *)
  if Obs.Sink.on st.sink then
    Obs.Sink.record st.sink
      (Obs.Event.Granted { tx = id.Names.tx; idx = id.Names.idx });
  st.sched.Scheduler.commit id;
  st.clock <- st.clock + 1;
  Obs.Sink.set_now st.sink (float_of_int st.clock);
  log_grant st id;
  st.grants <- st.grants + 1;
  let submitted = submit_pop st id.Names.tx in
  st.waiting <- st.waiting + (st.clock - 1 - submitted);
  st.next_step.(id.Names.tx) <- id.Names.idx + 1;
  st.outstanding.(id.Names.tx) <- st.outstanding.(id.Names.tx) - 1;
  let done_ = completed st id.Names.tx in
  if done_ then st.n_done <- st.n_done + 1;
  if Obs.Sink.on st.sink then begin
    Obs.Sink.record st.sink
      (Obs.Event.Executed { tx = id.Names.tx; idx = id.Names.idx });
    if done_ then
      Obs.Sink.record st.sink (Obs.Event.Committed { tx = id.Names.tx })
  end

(* Grant as many outstanding requests of [i] as possible. Returns true
   if at least one step was granted. *)
let try_drain st i =
  let made_progress = ref false in
  let continue = ref true in
  while !continue && st.outstanding.(i) > 0 do
    let id = Names.step i st.next_step.(i) in
    match st.sched.Scheduler.attempt id with
    | Scheduler.Grant ->
      do_grant st id;
      made_progress := true
    | Scheduler.Delay ->
      st.parked.(i) <- epoch st;
      st.delays <- st.delays + 1;
      if Obs.Sink.on st.sink then
        Obs.Sink.record st.sink
          (Obs.Event.Delayed { tx = i; idx = st.next_step.(i) });
      enqueue st i;
      continue := false
    | Scheduler.Abort ->
      do_abort st ~reason:Obs.Event.Scheduler_abort i;
      (* retried on a later scan, after the transactions it yielded to *)
      dequeue st i;
      enqueue st i;
      made_progress := true;
      continue := false
  done;
  if st.outstanding.(i) = 0 then dequeue st i;
  !made_progress

(* Repeatedly scan the FIFO queue, restarting from the head after every
   grant, until a full pass yields nothing. A parked transaction — one
   delayed at the current epoch — is skipped without asking: by the
   epoch contract the answer is Delay, and a Delay changes nothing, so
   skipping it decides exactly what asking it would. The epoch is read
   once per pass, since only progress (which restarts the pass) moves
   it. The cursor walk is safe without a snapshot: a no-progress
   [try_drain] (Delay of an already-queued transaction) leaves the
   queue untouched, and on any mutation we restart from the head
   anyway. *)
let process_queue st =
  let continue = ref true in
  while !continue do
    let e = epoch st in
    let rec scan i =
      if i < 0 then false
      else begin
        let nxt = Intq.next st.blocked i in
        if st.parked.(i) <> e && try_drain st i then true else scan nxt
      end
    in
    continue := scan (Intq.head st.blocked)
  done

(* Victim priority is wound-wait style: seniority is fixed at a
   transaction's first arrival and survives restarts, and the stuck list
   is presented youngest-first.  A scheduler that honours the order (the
   default [victim] takes the head; [Tpl_sched] picks the youngest member
   of the wait-for cycle) never aborts the oldest live transaction, so
   the oldest always completes and the drain loop terminates instead of
   rotating abort victims round-robin forever. *)
let resolve_stall st =
  let stuck =
    List.filter (fun i -> st.outstanding.(i) > 0) (Intq.to_list st.blocked)
    |> List.sort (fun a b -> compare st.arrival_rank.(b) st.arrival_rank.(a))
  in
  match st.sched.Scheduler.victim stuck with
  | Some v ->
    st.deadlocks <- st.deadlocks + 1;
    do_abort st ~reason:Obs.Event.Deadlock v;
    (* the victim yields: everyone it was blocking goes first *)
    dequeue st v;
    enqueue st v
  | None ->
    raise
      (Stall
         (Printf.sprintf "driver: scheduler %s cannot resolve a stall"
            st.sched.Scheduler.name))

(* ---------- incremental interface ---------- *)

type t = state

let create ?(sink = Obs.Sink.null) sched ~fmt = init sched sink fmt

(* One arrival: clock tick, seniority stamp, request bookkeeping, then
   grant whatever the new request unblocks. Identical to one iteration
   of the old monolithic run loop — [run] below is a composition, not a
   reimplementation, so every engine built on [submit]/[drain] inherits
   the exact single-threaded semantics. *)
let submit st i =
  st.submissions <- st.submissions + 1;
  st.clock <- st.clock + 1;
  Obs.Sink.set_now st.sink (float_of_int st.clock);
  if st.arrival_rank.(i) < 0 then begin
    st.arrival_rank.(i) <- st.arrived;
    st.arrived <- st.arrived + 1
  end;
  st.outstanding.(i) <- st.outstanding.(i) + 1;
  submit_push st i st.clock;
  if Obs.Sink.on st.sink then
    Obs.Sink.record st.sink
      (Obs.Event.Submitted
         { tx = i; idx = st.next_step.(i) + st.outstanding.(i) - 1 });
  if in_queue st i then ()
  else if try_drain st i then process_queue st

let submit_many st arrivals = Array.iter (submit st) arrivals

let drain st =
  (* drain the tail; bound the work to defend against livelock *)
  let n = Array.length st.fmt in
  let budget = ref (100 * (st.submissions + 1) * (n + 1)) in
  let all_done () = st.n_done = n in
  while not (all_done ()) do
    decr budget;
    if !budget < 0 then
      raise
        (Stall
           (Printf.sprintf "driver: scheduler %s livelocked (budget exhausted)"
              st.sched.Scheduler.name));
    let before = st.grants in
    process_queue st;
    if st.grants = before && not (all_done ()) then resolve_stall st
  done;
  (* the committed schedule: the grants of each transaction's final
     incarnation, in grant order *)
  let output = Array.make (Array.fold_left ( + ) 0 st.fmt) (Names.step 0 0) in
  let k = ref 0 in
  for g = 0 to st.grants - 1 do
    let tx = st.log_tx.(g) in
    if st.log_inc.(g) = st.incarnation.(tx) then begin
      output.(!k) <- Names.step tx st.log_idx.(g);
      incr k
    end
  done;
  {
    output;
    delays = st.delays;
    restarts = st.restarts;
    deadlocks = st.deadlocks;
    waiting = st.waiting;
    grants = st.grants;
    aborts = Array.copy st.incarnation;
  }

let run ?sink sched ~fmt ~arrivals =
  let st = create ?sink sched ~fmt in
  submit_many st arrivals;
  drain st

let fixpoint_of mk fmt =
  List.filter
    (fun h ->
      let s = run (mk ()) ~fmt ~arrivals:(Schedule.to_interleaving h) in
      zero_delay s && Schedule.equal s.output h)
    (Schedule.all fmt)

let zero_delay_fraction mk ~fmt ~samples ~seed =
  if samples <= 0 then
    invalid_arg
      (Printf.sprintf
         "Driver.zero_delay_fraction: samples must be positive, got %d" samples);
  let stt = Random.State.make [| seed |] in
  let hits = ref 0 in
  for _ = 1 to samples do
    let arrivals = Combin.Interleave.random stt fmt in
    let s = run (mk ()) ~fmt ~arrivals in
    if zero_delay s then incr hits
  done;
  float_of_int !hits /. float_of_int samples
