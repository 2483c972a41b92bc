(* Outside-in tracing. The engines are timed only through their public
   surface: a [Sched.Scheduler.t] is a record of closures, so each
   closure is wrapped in a span; the [Driver.run] call that drives it
   is the parent span. Spans of one run share its run id and live in
   growable in-memory arrays until they are written out at exit. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* span kinds: a run, a scheduler's construction, and its callbacks;
   attempts are split by verdict so grant ratios come from the spans *)
let k_run = 0
let k_create = 1
let k_grant = 2
let k_delay = 3
let k_refuse = 4
let k_commit = 5
let k_abort = 6
let k_victim = 7
let n_kinds = 8

let kind_name = function
  | 0 -> "run"
  | 1 -> "create"
  | 2 -> "attempt.grant"
  | 3 -> "attempt.delay"
  | 4 -> "attempt.abort"
  | 5 -> "commit"
  | 6 -> "on_abort"
  | _ -> "victim"

type buf = {
  mutable kind : int array;
  mutable run : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable len : int;
  mutable next_run : int;
}

let create () =
  let cap = 4096 in
  {
    kind = Array.make cap 0;
    run = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    len = 0;
    next_run = 0;
  }

let clear b =
  b.len <- 0;
  b.next_run <- 0

let grow a = Array.append a (Array.make (Array.length a) 0)

let push b kind run t0 t1 =
  if b.len = Array.length b.kind then begin
    b.kind <- grow b.kind;
    b.run <- grow b.run;
    b.t0 <- grow b.t0;
    b.t1 <- grow b.t1
  end;
  let i = b.len in
  b.kind.(i) <- kind;
  b.run.(i) <- run;
  b.t0.(i) <- t0;
  b.t1.(i) <- t1;
  b.len <- i + 1

let wrap b run (s : Sched.Scheduler.t) : Sched.Scheduler.t =
  let open Sched.Scheduler in
  {
    s with
    attempt =
      (fun id ->
        let a = now () in
        let r = s.attempt id in
        let z = now () in
        push b
          (match r with Grant -> k_grant | Delay -> k_delay | Abort -> k_refuse)
          run a z;
        r);
    commit =
      (fun id ->
        let a = now () in
        s.commit id;
        push b k_commit run a (now ()));
    on_abort =
      (fun tx ->
        let a = now () in
        s.on_abort tx;
        push b k_abort run a (now ()));
    victim =
      (fun stuck ->
        let a = now () in
        let v = s.victim stuck in
        push b k_victim run a (now ());
        v);
  }

(* One traced run: a create span, then the run span enclosing every
   callback span the driver makes into the wrapped scheduler. *)
let traced_run b ~make ~fmt ~arrivals =
  let run = b.next_run in
  b.next_run <- run + 1;
  let c0 = now () in
  let sched = make () in
  let c1 = now () in
  push b k_create run c0 c1;
  let sched = wrap b run sched in
  let r0 = now () in
  let stats = Sched.Driver.run sched ~fmt ~arrivals in
  push b k_run run r0 (now ());
  stats

type summary = {
  run_ns : int;
  child_ns : int;  (** callback spans inside run spans *)
  count : int array;  (** spans per kind *)
  ns : int array;  (** summed duration per kind *)
  identity : bool;
      (** every callback span lies inside its run span and no two
          overlap, so run span = Driver self time + child spans *)
}

(* Callbacks of a run are pushed while it is open and its run span when
   it closes, so each run's children are the block just before it. *)
let summarize b =
  let count = Array.make n_kinds 0 and ns = Array.make n_kinds 0 in
  let identity = ref true in
  let child_ns = ref 0 in
  let block_start = ref 0 in
  for i = 0 to b.len - 1 do
    let k = b.kind.(i) and d = b.t1.(i) - b.t0.(i) in
    count.(k) <- count.(k) + 1;
    ns.(k) <- ns.(k) + d;
    if k = k_run then begin
      let covered = ref 0 and last = ref b.t0.(i) in
      for j = !block_start to i - 1 do
        if b.kind.(j) <> k_create then begin
          if b.run.(j) <> b.run.(i) || b.t0.(j) < !last || b.t1.(j) > b.t1.(i)
          then identity := false;
          last := b.t1.(j);
          covered := !covered + (b.t1.(j) - b.t0.(j))
        end
      done;
      if !covered > d then identity := false;
      child_ns := !child_ns + !covered;
      block_start := i + 1
    end
  done;
  {
    run_ns = ns.(k_run);
    child_ns = !child_ns;
    count;
    ns;
    identity = !identity;
  }

(* The spans of runs [0 .. runs-1], one tab-separated line each. *)
let dump oc ~engine ~runs b =
  for i = 0 to b.len - 1 do
    if b.run.(i) < runs then
      Printf.fprintf oc "%s\t%d\t%s\t%d\t%d\n" engine b.run.(i)
        (kind_name b.kind.(i)) b.t0.(i) b.t1.(i)
  done
