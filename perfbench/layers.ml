(* The traced run: per-layer metrics, each measured from outside its
   layer. Exact counts come from one pass with a counting sink; times
   come from interleaved rounds of span-wrapped runs and direct calls
   into the layer's public functions. *)

open Core
open Common

let keys = List.map fst registry_names

(* Every per-layer metric, in output order, with its unit. *)
let per_layer =
  List.concat_map
    (fun k ->
      let m s = "driver." ^ k ^ "." ^ s in
      [
        (m "self_ns_per_step", "ns");
        (m "delays_per_step", "ratio");
        (m "regrants_per_step", "ratio");
        (m "restarts_per_txn", "ratio");
        (m "stalls_per_run", "ratio");
        (m "wait_events_per_step", "ratio");
      ])
    keys
  @ [ ("driver.serial.ns_per_step", "ns") ]
  @ List.concat_map
      (fun k ->
        let m s = "sched." ^ k ^ "." ^ s in
        [
          (m "attempt_ns", "ns");
          (m "commit_ns", "ns");
          (m "abort_ns", "ns");
          (m "create_us", "us");
          (m "grant_ratio", "ratio");
        ])
      keys
  @ [
      ("acyclic.sgt.fresh_refusals_per_step", "ratio");
      ("acyclic.sgt.edges_per_step", "ratio");
      ("acyclic.sgt.cache_hit_ratio", "ratio");
      ("acyclic.closes_cycle_any_ns", "ns");
      ("acyclic.add_edge_ns", "ns");
      ("commute.passes_per_step", "ratio");
      ("commute.skipped_per_pass", "ratio");
      ("mv.ssi.ww_refusals_per_txn", "ratio");
      ("mv.ssi.pivot_refusals_per_txn", "ratio");
      ("mv.ssi.false_positive_ratio", "ratio");
      ("obs.ring.record_ns", "ns");
      ("obs.events_per_step", "ratio");
      ("obs.trace_overhead", "ratio");
      ("parallel.commit_steps_per_s", "steps/s");
      ("parallel.coordinator_share", "ratio");
      ("parallel.workers", "count");
      ("parallel.vs_sharded", "ratio");
      ("chan.ring.push_ns", "ns");
      ("chan.ring.pop_batch_ns_per_item", "ns");
    ]
  @ List.map
      (fun l -> ("check." ^ Checker.level_name l ^ ".ns_per_event", "ns"))
      Checker.levels
  @ [
      ("check.history_ns_per_event", "ns");
      ("span.overhead", "ratio");
      ("failed_frac", "ratio");
    ]

let values : (string, float list) Hashtbl.t = Hashtbl.create 128

let add name v =
  Hashtbl.replace values name
    (v :: Option.value ~default:[] (Hashtbl.find_opt values name))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------- exact counts ---------- *)

type counts = {
  mutable runs : int;
  mutable steps : int;
  mutable txns : int;
  mutable delays : int;
  mutable grants : int;
  mutable restarts : int;
  mutable deadlocks : int;
  mutable waiting : int;
  mutable events : int;
  mutable refusals : int;
  mutable edges : int;
  mutable passes : int;
  mutable skipped : int;
  mutable ww : int;
  mutable pivots : int;
  mutable pivot_fp : int;
}

let zero () =
  {
    runs = 0;
    steps = 0;
    txns = 0;
    delays = 0;
    grants = 0;
    restarts = 0;
    deadlocks = 0;
    waiting = 0;
    events = 0;
    refusals = 0;
    edges = 0;
    passes = 0;
    skipped = 0;
    ww = 0;
    pivots = 0;
    pivot_fp = 0;
  }

(* The sink the engines and the driver already emit into, wrapped to
   count events by kind. *)
let counting c =
  {
    Obs.Sink.now = 0.;
    enabled = true;
    emit =
      (fun _ e ->
        c.events <- c.events + 1;
        match e with
        | Obs.Event.Cycle_refused _ -> c.refusals <- c.refusals + 1
        | Obs.Event.Edge_added _ -> c.edges <- c.edges + 1
        | Obs.Event.Commute_pass { skipped; _ } ->
          c.passes <- c.passes + 1;
          c.skipped <- c.skipped + skipped
        | Obs.Event.Ww_refused _ -> c.ww <- c.ww + 1
        | Obs.Event.Pivot_refused { cyclic; _ } ->
          c.pivots <- c.pivots + 1;
          if not cyclic then c.pivot_fp <- c.pivot_fp + 1
        | _ -> ());
  }

let count_engine key (w : Gen.t) =
  let e = registry (List.assoc key registry_names) in
  let c = zero () in
  Array.iter
    (fun (s : Gen.stream) ->
      let sink = counting c in
      incr attempted;
      match
        Driver.run ~sink (e.Sched.Registry.make ~sink s.Gen.syntax)
          ~fmt:s.Gen.fmt ~arrivals:s.Gen.arrivals
      with
      | st ->
        c.runs <- c.runs + 1;
        c.steps <- c.steps + Array.length st.Driver.output;
        c.txns <- c.txns + Array.length s.Gen.fmt;
        c.delays <- c.delays + st.Driver.delays;
        c.grants <- c.grants + st.Driver.grants;
        c.restarts <- c.restarts + st.Driver.restarts;
        c.deadlocks <- c.deadlocks + st.Driver.deadlocks;
        c.waiting <- c.waiting + st.Driver.waiting
      | exception Driver.Stall m -> fail "%s (counted): stall: %s" key m)
    w.Gen.streams;
  c

type routing = { coordinated : int; routed : int; workers : int; par_runs : int }

let count_parallel (w : Gen.t) =
  Array.fold_left
    (fun acc (s : Gen.stream) ->
      incr attempted;
      match parallel_report s with
      | r ->
        let coord =
          Array.fold_left
            (fun n (wr : Sched.Parallel.worker_report) ->
              if wr.Sched.Parallel.coordinator then
                n + Array.length wr.Sched.Parallel.txns
              else n)
            0 r.Sched.Parallel.workers
        in
        {
          coordinated = acc.coordinated + coord;
          routed = acc.routed + Array.length s.Gen.fmt;
          workers = acc.workers + r.Sched.Parallel.domains;
          par_runs = acc.par_runs + 1;
        }
      | exception Driver.Stall m ->
        fail "parallel (counted): stall: %s" m;
        acc)
    { coordinated = 0; routed = 0; workers = 0; par_runs = 0 }
    w.Gen.streams

let count_all w =
  (List.map (fun k -> (k, count_engine k w)) keys, count_parallel w)

let emit_counts (engines, par) =
  List.iter
    (fun (k, c) ->
      let m s = "driver." ^ k ^ "." ^ s in
      add (m "delays_per_step") (ratio c.delays c.steps);
      add (m "regrants_per_step") (ratio (c.grants - c.steps) c.steps);
      add (m "restarts_per_txn") (ratio c.restarts c.txns);
      add (m "stalls_per_run") (ratio c.deadlocks c.runs);
      add (m "wait_events_per_step") (ratio c.waiting c.steps))
    engines;
  let sgt = List.assoc "sgt" engines in
  add "acyclic.sgt.fresh_refusals_per_step" (ratio sgt.refusals sgt.steps);
  add "acyclic.sgt.edges_per_step" (ratio sgt.edges sgt.steps);
  add "acyclic.sgt.cache_hit_ratio"
    (if sgt.delays = 0 then 0. else 1. -. ratio sgt.refusals sgt.delays);
  add "obs.events_per_step" (ratio sgt.events sgt.steps);
  let sem = List.assoc "semantic" engines in
  add "commute.passes_per_step" (ratio sem.passes sem.steps);
  add "commute.skipped_per_pass" (ratio sem.skipped sem.passes);
  let ssi = List.assoc "ssi" engines in
  add "mv.ssi.ww_refusals_per_txn" (ratio ssi.ww ssi.txns);
  add "mv.ssi.pivot_refusals_per_txn" (ratio ssi.pivots ssi.txns);
  add "mv.ssi.false_positive_ratio" (ratio ssi.pivot_fp ssi.pivots);
  add "parallel.coordinator_share" (ratio par.coordinated par.routed);
  add "parallel.workers" (ratio par.workers par.par_runs)

(* ---------- layer micro-measurements ---------- *)

(* Each direct measurement repeats its loop until this much is timed. *)
let min_ns = 5_000_000

let repeat_until f =
  let ns = ref 0 and reps = ref 0 in
  while !ns < min_ns do
    ns := !ns + f ();
    incr reps
  done;
  (!ns, !reps)

(* The conflict edges of each SGT committed schedule, deduplicated, in
   the order SGT admitted them: earlier accessor -> later accessor of
   one variable. Sources are kept as the singleton lists the query
   takes. *)
let conflict_edges refs =
  Array.mapi
    (fun k o ->
      let s = refs.w.Gen.streams.(k) in
      let out = match o with Some o -> o.output | None -> [||] in
      let seen = Hashtbl.create 64 and have = Hashtbl.create 256 in
      let edges = ref [] in
      Array.iter
        (fun (id : Names.step_id) ->
          let v = Syntax.var s.Gen.syntax id in
          let prev = Option.value ~default:[] (Hashtbl.find_opt seen v) in
          List.iter
            (fun u ->
              if u <> id.Names.tx && not (Hashtbl.mem have (u, id.Names.tx))
              then begin
                Hashtbl.add have (u, id.Names.tx) ();
                edges := (u, id.Names.tx) :: !edges
              end)
            prev;
          if not (List.mem id.Names.tx prev) then
            Hashtbl.replace seen v (id.Names.tx :: prev))
        out;
      let e = Array.of_list (List.rev !edges) in
      (Array.length s.Gen.fmt, Array.map (fun (u, _) -> [ u ]) e, Array.map snd e))
    (outs_of refs "sgt")

(* Insert every edge into fresh graphs and return the time the inserts
   took; with [query], each insert is preceded by a [closes_cycle_any]
   query, timed call by call (each including one clock read) and added
   to [query_ns]. The edges of a serializable schedule never close a
   cycle. *)
let replay ?query_ns edges =
  let graphs = Array.map (fun (n, _, _) -> Digraph.Acyclic.create n) edges in
  let refused = ref 0 in
  let t0 = now () in
  Array.iteri
    (fun k (_, srcs, dsts) ->
      let g = graphs.(k) in
      for j = 0 to Array.length dsts - 1 do
        (match query_ns with
        | Some q ->
          let a = now () in
          let closes =
            Digraph.Acyclic.closes_cycle_any g ~sources:srcs.(j) ~target:dsts.(j)
          in
          q := !q + (now () - a);
          if closes then incr refused
        | None -> ());
        match Digraph.Acyclic.add_edge_acyclic g (List.hd srcs.(j)) dsts.(j) with
        | Ok () -> ()
        | Error _ -> incr refused
      done)
    edges;
  let dt = now () - t0 in
  if !refused > 0 then fail "acyclic replay: a committed conflict edge closed a cycle";
  dt

let measure_acyclic edges =
  let n = Array.fold_left (fun acc (_, _, d) -> acc + Array.length d) 0 edges in
  if n > 0 then begin
    let query_ns = ref 0 and insert_ns = ref 0 in
    let _, reps =
      repeat_until (fun () ->
          let a = replay ~query_ns edges in
          let b = replay edges in
          insert_ns := !insert_ns + b;
          a + b)
    in
    let per x = float_of_int x /. float_of_int (n * reps) in
    add "acyclic.closes_cycle_any_ns" (per !query_ns);
    add "acyclic.add_edge_ns" (per !insert_ns)
  end

(* One producer and the single consumer on this domain: the per-item
   cost of the lock-free ring without any cross-domain traffic. *)
let measure_chan () =
  let n = 4096 in
  let buf = Array.make 64 0 in
  let push_ns = ref 0 and pop_ns = ref 0 in
  let _, reps =
    repeat_until (fun () ->
        let c = Sched.Chan.create ~capacity:n Sched.Chan.Ring in
        let t0 = now () in
        for i = 1 to n do
          Sched.Chan.push c i
        done;
        let t1 = now () in
        let got = ref 0 and sum = ref 0 in
        while !got < n do
          let k = Sched.Chan.pop_batch c buf in
          for j = 0 to k - 1 do
            sum := !sum + buf.(j)
          done;
          got := !got + k
        done;
        let t2 = now () in
        if !sum <> n * (n + 1) / 2 then fail "chan: items lost or duplicated";
        push_ns := !push_ns + (t1 - t0);
        pop_ns := !pop_ns + (t2 - t1);
        t2 - t0)
  in
  let per x = float_of_int x /. float_of_int (n * reps) in
  add "chan.ring.push_ns" (per !push_ns);
  add "chan.ring.pop_batch_ns_per_item" (per !pop_ns)

let measure_ring_record events =
  let n = Array.length events in
  if n > 0 then begin
    let ns, reps =
      repeat_until (fun () ->
          Obs.Sink.Ring.clear ring;
          let t0 = now () in
          Array.iter (fun (_, ev) -> Obs.Sink.record ring_sink ev) events;
          now () - t0)
    in
    add "obs.ring.record_ns" (float_of_int ns /. float_of_int (n * reps))
  end

let measure_checker refs =
  let events =
    Array.fold_left (fun acc h -> acc + History.n_events h) 0 refs.hists
  in
  let per ns = float_of_int ns /. float_of_int (max 1 events) in
  List.iter
    (fun level ->
      let t0 = now () in
      let ok = Array.for_all (fun h -> conforms h level) refs.hists in
      add ("check." ^ Checker.level_name level ^ ".ns_per_event") (per (now () - t0));
      if not ok then fail "checker rejected an sgt history at %s" (Checker.level_name level))
    Checker.levels;
  let outs = outs_of refs "sgt" in
  let t0 = now () in
  Array.iteri
    (fun k o ->
      let s = refs.w.Gen.streams.(k) in
      match o with
      | Some o -> ignore (History.of_schedule s.Gen.syntax o.output : History.t)
      | None -> ())
    outs;
  add "check.history_ns_per_event" (per (now () - t0))

(* ---------- the traced run ---------- *)

let timed_sweep (e : engine) (w : Gen.t) =
  Gc.major ();
  let t0 = now () in
  let got = sweep e w in
  (now () - t0, got)

(* One span-traced sweep of a driven engine; returns the time its
   create and run spans cover. *)
let traced_sweep refs key buf =
  let e = registry (List.assoc key registry_names) in
  let w = refs.w in
  Spans.clear buf;
  Gc.major ();
  let got =
    Array.map
      (fun (s : Gen.stream) ->
        incr attempted;
        match
          Spans.traced_run buf
            ~make:(fun () -> e.Sched.Registry.make s.Gen.syntax)
            ~fmt:s.Gen.fmt ~arrivals:s.Gen.arrivals
        with
        | st -> Some (of_stats st)
        | exception Driver.Stall m ->
          fail "%s (traced): stall: %s" key m;
          None)
      w.Gen.streams
  in
  same_as_refs refs key got;
  let sm = Spans.summarize buf in
  if not sm.Spans.identity then
    fail "%s: callback spans escape or overlap their run span" key;
  let steps = Gen.total_steps w in
  let kinds ks f = List.fold_left (fun acc k -> acc + f k) 0 ks in
  let attempts = [ Spans.k_grant; Spans.k_delay; Spans.k_refuse ] in
  let n_att = kinds attempts (fun k -> sm.Spans.count.(k)) in
  let m s = "sched." ^ key ^ "." ^ s in
  add
    ("driver." ^ key ^ ".self_ns_per_step")
    (ratio (sm.Spans.run_ns - sm.Spans.child_ns) steps);
  add (m "attempt_ns") (ratio (kinds attempts (fun k -> sm.Spans.ns.(k))) n_att);
  add (m "commit_ns")
    (ratio sm.Spans.ns.(Spans.k_commit) sm.Spans.count.(Spans.k_commit));
  add (m "abort_ns")
    (ratio sm.Spans.ns.(Spans.k_abort) sm.Spans.count.(Spans.k_abort));
  add (m "create_us")
    (ratio sm.Spans.ns.(Spans.k_create) sm.Spans.count.(Spans.k_create) /. 1e3);
  add (m "grant_ratio") (ratio sm.Spans.count.(Spans.k_grant) n_att);
  sm.Spans.ns.(Spans.k_create) + sm.Spans.run_ns

let round refs ~bufs ~edges ~events ~serial =
  let w = refs.w in
  let steps = Gen.total_steps w in
  let traced = ref 0 and untraced = ref 0 in
  let plain =
    List.map
      (fun (e : engine) ->
        traced := !traced + traced_sweep refs e.key (List.assoc e.key bufs);
        let ns, got = timed_sweep e w in
        same_as_refs refs e.key got;
        untraced := !untraced + ns;
        (e.key, ns))
      drivers
  in
  add "span.overhead" (ratio !traced !untraced);
  let ns, got = timed_sweep serial w in
  Array.iteri
    (fun k o ->
      match o with
      | Some o when not (Schedule.is_schedule_of w.Gen.streams.(k).Gen.fmt o.output)
        -> fail "serial stream %d: output is not a schedule of the format" k
      | _ -> ())
    got;
  add "driver.serial.ns_per_step" (ratio ns steps);
  let ring_ns, got = timed_sweep sgt_ring w in
  same_as_refs refs sgt_ring.key got;
  add "obs.trace_overhead" (ratio ring_ns (List.assoc "sgt" plain));
  let par_ns, got = timed_sweep parallel w in
  same_as_refs refs parallel.key got;
  add "parallel.commit_steps_per_s" (1e9 *. ratio steps par_ns);
  add "parallel.vs_sharded" (ratio (List.assoc "sharded" plain) par_ns);
  measure_ring_record events;
  measure_chan ();
  measure_acyclic edges;
  measure_checker refs

(* Spans of the first 16 runs of each engine in the last round, one
   line per span: engine, run id, kind, start ns, end ns. Written under
   the checkout the benchmark runs in; all runs would be tens of MB. *)
let spans_dir = "perfbench/out"

let dump_spans bufs =
  if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
  let path = Filename.concat spans_dir ("spans-" ^ !workload ^ ".tsv") in
  let oc = open_out path in
  output_string oc "engine\trun\tkind\tstart_ns\tend_ns\n";
  List.iter (fun (engine, b) -> Spans.dump oc ~engine ~runs:16 b) bufs;
  close_out oc

let run () =
  let refs = with_parallel (setup ()) in
  verify refs;
  (* determinism: the same seed regenerates identical inputs and exact
     counts; another seed changes the streams *)
  let counts = count_all refs.w in
  if count_all (Gen.generate !workload ~seed:!seed) <> counts then
    fail "exact counts differ between two runs of seed %d" !seed;
  if Gen.same_inputs refs.w (Gen.generate !workload ~seed:(!seed + 1)) then
    fail "seeds %d and %d generate the same streams" !seed (!seed + 1);
  emit_counts counts;
  let events =
    let c = Obs.Sink.Memory.create () in
    let sink = Obs.Sink.Memory.sink c in
    Array.iter
      (fun (s : Gen.stream) ->
        incr attempted;
        match
          Driver.run ~sink (Sched.Sgt.create ~sink ~syntax:s.Gen.syntax ())
            ~fmt:s.Gen.fmt ~arrivals:s.Gen.arrivals
        with
        | _ -> ()
        | exception Driver.Stall m -> fail "sgt (recorded): stall: %s" m)
      refs.w.Gen.streams;
    Array.of_list (Obs.Sink.Memory.events c)
  in
  let edges = conflict_edges refs in
  let bufs = List.map (fun k -> (k, Spans.create ())) keys in
  let serial = driven ("serial", "serial") in
  let calibration = calibration_pass () in
  rounds ~budget_ns:(!seconds * 1_000_000_000) (fun () ->
      round refs ~bufs ~edges ~events ~serial;
      sample calibration);
  let speed = set_host_speed calibration in
  dump_spans bufs;
  add "failed_frac" (ratio !failed (max 1 !attempted));
  List.iter
    (fun (name, unit_) ->
      match Hashtbl.find_opt values name with
      | Some l ->
        let v = median l in
        let v =
          match unit_ with
          | "ns" | "us" -> v *. speed
          | "steps/s" -> v /. speed
          | _ -> v
        in
        emit ~samples:(List.length l) name unit_ v
      | None ->
        fail "per-layer metric %s was not measured" name;
        emit name unit_ 0.)
    per_layer;
  finish ()
