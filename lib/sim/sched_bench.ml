open Core

type spec = {
  sizes : (int * int) list;
  mixes : string list;
  n_vars : int;
  streams : int;
  min_time : float;
  seed : int;
  shard_ks : int list;
  shard_sizes : (int * int) list;
  shard_mixes : string list;
  mv_sizes : (int * int) list;
  mv_mixes : string list;
  mv_samples : int;
  (* commutativity section; empty [sem_sizes] or [sem_mixes] skips it.
     SGT vs the semantic engine on typed counter mixes — the hot and
     skewed workloads where the commutativity table actually removes
     conflict edges. *)
  sem_sizes : (int * int) list;
  sem_mixes : string list;
  sem_samples : int;
  (* wall-clock parallel-execution section; empty [par_domains] skips it.
     Each variant runs one shard per domain (K = D), so d1 is the
     monolithic single-shard engine on one domain — the configuration a
     user without the parallel feature gets — and the sweep is the
     engine's scaling curve. *)
  par_domains : int list;
  par_queues : Sched.Chan.kind list;
  par_sizes : (int * int) list;
  par_mixes : string list;
  par_streams : int;
  (* distributed-commit section; empty [twopc_fault_rates] skips it.
     Each rate drives [twopc_rounds] commit rounds through a
     [Sched.Twopc.service] over [twopc_parts] participants, with the
     crash rate at the sweep value and the slow-link rate at half it. *)
  twopc_fault_rates : float list;
  twopc_rounds : int;
  twopc_parts : int;
}

type row = {
  scheduler : string;
  mix : string;
  n : int;
  m : int;
  requests : int;
  seconds : float;
  req_per_sec : float;
}

let default =
  {
    sizes = [ (4, 4); (8, 8); (16, 8) ];
    mixes = [ "uniform"; "hot"; "skewed" ];
    n_vars = 8;
    streams = 20;
    min_time = 0.2;
    seed = 42;
    shard_ks = [ 1; 2; 4; 8 ];
    shard_sizes = [ (64, 2); (256, 2); (2048, 2) ];
    shard_mixes = [ "disjoint"; "hot"; "skewed" ];
    mv_sizes = [ (4, 3); (6, 3); (8, 2) ];
    mv_mixes = [ "rw-uniform"; "rw-hot"; "rw-readmost" ];
    mv_samples = 200;
    sem_sizes = [ (4, 4); (8, 8); (16, 8) ];
    sem_mixes = [ "ctr-hot"; "ctr-skewed" ];
    sem_samples = 200;
    par_domains = [ 1; 2; 4; 8 ];
    par_queues = [ Sched.Chan.Ring; Sched.Chan.Mutex ];
    (* 2048x2 disjoint is the scaling cell; 256x2 keeps the contended
       mix affordable (same cap as the sharded section) *)
    par_sizes = [ (2048, 2); (256, 2) ];
    par_mixes = [ "disjoint"; "hot" ];
    par_streams = 2;
    twopc_fault_rates = [ 0.; 0.05; 0.1; 0.2; 0.4 ];
    twopc_rounds = 400;
    twopc_parts = 3;
  }

let smoke =
  {
    sizes = [ (2, 2); (3, 2) ];
    mixes = [ "uniform"; "hot" ];
    n_vars = 3;
    streams = 2;
    min_time = 0.;
    seed = 42;
    shard_ks = [ 4 ];
    shard_sizes = [ (8, 2) ];
    shard_mixes = [ "disjoint" ];
    mv_sizes = [ (3, 2) ];
    mv_mixes = [ "rw-hot" ];
    mv_samples = 20;
    sem_sizes = [ (3, 2) ];
    sem_mixes = [ "ctr-hot" ];
    sem_samples = 20;
    par_domains = [ 1; 2 ];
    par_queues = [ Sched.Chan.Ring ];
    par_sizes = [ (16, 2) ];
    par_mixes = [ "disjoint" ];
    par_streams = 1;
    twopc_fault_rates = [ 0.; 0.3 ];
    twopc_rounds = 20;
    twopc_parts = 2;
  }

let syntax_of_mix st ~mix ~n ~m ~n_vars =
  match mix with
  | "uniform" -> Workload.uniform st ~n ~m ~n_vars
  | "hot" -> Workload.hotspot st ~n ~m ~n_vars ~theta:0.8
  | "skewed" -> Workload.zipf st ~n ~m ~n_vars ~s:1.2
  | "disjoint" ->
    ignore (st : Random.State.t);
    Workload.disjoint ~n ~m
  | "rw-uniform" ->
    Workload.mixed st ~n ~m ~n_vars ~read_frac:0.6
      ~theta:(1.0 /. float_of_int n_vars)
  | "rw-hot" -> Workload.mixed st ~n ~m ~n_vars ~read_frac:0.6 ~theta:0.8
  (* read-mostly with a mild hot spot: updates spread enough that
     first-committer-wins stays quiet while crossing reads still build
     dangerous structures — the mix that exercises SSI's pivot aborts
     (including its false positives) rather than FCW *)
  | "rw-readmost" ->
    Workload.mixed st ~n ~m ~n_vars ~read_frac:0.8 ~theta:0.3
  (* typed counter mixes for the commutativity section: mostly
     increments/decrements with a thin read tail, concentrated on a hot
     key or a zipf head — the regimes where rw conflict detection
     serialises work the semantics never required *)
  | "ctr-hot" ->
    Workload.semantic_counters st ~n ~m ~n_vars ~theta:0.8 ~read_frac:0.1
  | "ctr-skewed" ->
    Workload.semantic_zipf st ~n ~m ~n_vars ~s:1.2 ~read_frac:0.1
  | name ->
    invalid_arg
      ("unknown workload mix " ^ name
     ^ " (uniform, hot, skewed, disjoint, rw-uniform, rw-hot, \
        rw-readmost, ctr-hot, ctr-skewed)")

let schedulers syntax =
  [
    ("serial", fun () -> Sched.Serial_sched.create ~fmt:(Syntax.format syntax));
    ("2PL", fun () -> Sched.Tpl_sched.create_2pl ~syntax ());
    ("TO", fun () -> Sched.Timestamp.create ~syntax ());
    ("SGT", fun () -> Sched.Sgt.create ~syntax ());
    ("SGT-ref", fun () -> Sched.Sgt_ref.create ~syntax);
  ]

(* Requests served = scheduler decisions that consumed a submitted
   request: grants (re-executions included) plus delays plus
   outright aborts. Decision-equivalent schedulers therefore serve the
   same request count and differ only in elapsed time. *)
let requests_of (s : Sched.Driver.stats) =
  s.Sched.Driver.grants + s.Sched.Driver.delays + s.Sched.Driver.restarts

(* Time every scheduler of a cell together, in interleaved rounds: each
   round runs one whole pass of each scheduler over every stream, timed
   individually at pass granularity (clock overhead stays out of the
   measurement). Interleaving matters for the reported ratios — timing
   each scheduler in its own contiguous block lets CPU frequency drift
   between blocks masquerade as a speedup. One warm-up pass per
   scheduler, then rounds until the cell's time budget
   ([min_time] x number of schedulers, matching the sequential layout's
   total) is spent. *)
(* The generic core: each entry of [passes] runs one whole pass of its
   configuration and returns the requests it served. *)
let time_cells ~min_time passes =
  let k = Array.length passes in
  let requests = Array.make k 0 in
  let seconds = Array.make k 0. in
  Array.iter (fun pass -> ignore (pass ())) passes;
  let budget = min_time *. float_of_int k in
  let total = ref 0. in
  let rounds = ref 0 in
  while !rounds = 0 || !total < budget do
    for j = 0 to k - 1 do
      let t0 = Unix.gettimeofday () in
      requests.(j) <- requests.(j) + passes.(j) ();
      let dt = Unix.gettimeofday () -. t0 in
      seconds.(j) <- seconds.(j) +. dt;
      total := !total +. dt
    done;
    incr rounds
  done;
  Array.init k (fun j -> (requests.(j), seconds.(j)))

let time_cell_set ~min_time ~fmt ~arrivals mks =
  time_cells ~min_time
    (Array.map
       (fun mk () ->
         Array.fold_left
           (fun acc a ->
             acc + requests_of (Sched.Driver.run (mk ()) ~fmt ~arrivals:a))
           0 arrivals)
       mks)

let run_section spec ~mixes ~sizes ~named_of_syntax =
  List.concat_map
    (fun mix ->
      List.concat_map
        (fun (n, m) ->
          (* fresh deterministic rng per cell: every scheduler sees the
             identical syntax and arrival streams *)
          let st = Random.State.make [| spec.seed; Hashtbl.hash mix; n; m |] in
          let syntax = syntax_of_mix st ~mix ~n ~m ~n_vars:spec.n_vars in
          let fmt = Syntax.format syntax in
          let arrivals =
            Array.init spec.streams (fun _ -> Combin.Interleave.random st fmt)
          in
          let named = named_of_syntax syntax in
          let cells =
            time_cell_set ~min_time:spec.min_time ~fmt ~arrivals
              (Array.of_list (List.map snd named))
          in
          List.mapi
            (fun j (name, _) ->
              let requests, seconds = cells.(j) in
              {
                scheduler = name;
                mix;
                n;
                m;
                requests;
                seconds;
                req_per_sec =
                  (if seconds > 0. then float_of_int requests /. seconds
                   else 0.);
              })
            named)
        sizes)
    mixes

(* The multi-version section pits single-version SGT against the MV
   family on typed read/update mixes — the workloads where snapshot
   reads actually buy admission breadth. *)
let mv_schedulers syntax =
  [
    ("SGT", fun sink -> Sched.Sgt.create ~sink ~syntax ());
    ("MVCC", fun sink -> Sched.Mvcc.create ~sink ~syntax ());
    ("SI", fun sink -> Sched.Si.create ~sink ~syntax ());
    ("SSI", fun sink -> Sched.Ssi.create ~sink ~syntax ());
  ]

let mv_timing syntax =
  List.map
    (fun (name, mk) -> (name, fun () -> mk Obs.Sink.null))
    (mv_schedulers syntax)

type mv_stat = {
  mv_scheduler : string;
  mv_mix : string;
  mv_n : int;
  mv_m : int;
  breadth : float;
  mv_commits : int;
  ww_aborts : int;
  pivot_aborts : int;
  false_positive_aborts : int;
}

let mv_stats spec =
  List.concat_map
    (fun mix ->
      List.concat_map
        (fun (n, m) ->
          (* same cell discipline as the timing sections: one
             deterministic syntax and arrival-stream set per cell,
             shared by every engine *)
          let st =
            Random.State.make [| spec.seed; Hashtbl.hash mix; n; m; 0x6d76 |]
          in
          let syntax = syntax_of_mix st ~mix ~n ~m ~n_vars:spec.n_vars in
          let fmt = Syntax.format syntax in
          let arrivals =
            Array.init spec.streams (fun _ -> Combin.Interleave.random st fmt)
          in
          List.map
            (fun (name, mk) ->
              let breadth =
                Sched.Driver.zero_delay_fraction
                  (fun () -> mk Obs.Sink.null)
                  ~fmt ~samples:spec.mv_samples ~seed:spec.seed
              in
              let ww = ref 0 and pivot = ref 0 in
              let fp = ref 0 and commits = ref 0 in
              let sink =
                {
                  Obs.Sink.now = 0.;
                  enabled = true;
                  emit =
                    (fun _ e ->
                      match e with
                      | Obs.Event.Ww_refused _ -> incr ww
                      | Obs.Event.Pivot_refused { cyclic; _ } ->
                        incr pivot;
                        if not cyclic then incr fp
                      | Obs.Event.Committed _ -> incr commits
                      | _ -> ());
                }
              in
              Array.iter
                (fun a ->
                  ignore (Sched.Driver.run ~sink (mk sink) ~fmt ~arrivals:a))
                arrivals;
              {
                mv_scheduler = name;
                mv_mix = mix;
                mv_n = n;
                mv_m = m;
                breadth;
                mv_commits = !commits;
                ww_aborts = !ww;
                pivot_aborts = !pivot;
                false_positive_aborts = !fp;
              })
            (mv_schedulers syntax))
        spec.mv_sizes)
    spec.mv_mixes

(* The commutativity section pits rw-SGT against the semantic engine on
   typed counter mixes — identical machinery, the only delta being the
   {!Core.Commute} filter on conflict edges. *)
let sem_schedulers syntax =
  [
    ("SGT", fun sink -> Sched.Sgt.create ~sink ~syntax ());
    ("semantic", fun sink -> Sched.Semantic.create ~sink ~syntax ());
  ]

let sem_timing syntax =
  List.map
    (fun (name, mk) -> (name, fun () -> mk Obs.Sink.null))
    (sem_schedulers syntax)

type sem_stat = {
  sem_scheduler : string;
  sem_mix : string;
  sem_n : int;
  sem_m : int;
  sem_breadth : float;
  sem_delays : int;
  commute_passes : int;
  commute_skipped : int;
}

let sem_stats spec =
  match (spec.sem_mixes, spec.sem_sizes) with
  | [], _ | _, [] -> []
  | mixes, sizes ->
    List.concat_map
      (fun mix ->
        List.concat_map
          (fun (n, m) ->
            let st =
              Random.State.make
                [| spec.seed; Hashtbl.hash mix; n; m; 0x5e6d |]
            in
            let syntax = syntax_of_mix st ~mix ~n ~m ~n_vars:spec.n_vars in
            let fmt = Syntax.format syntax in
            let arrivals =
              Array.init spec.streams (fun _ ->
                  Combin.Interleave.random st fmt)
            in
            List.map
              (fun (name, mk) ->
                let breadth =
                  Sched.Driver.zero_delay_fraction
                    (fun () -> mk Obs.Sink.null)
                    ~fmt ~samples:spec.sem_samples ~seed:spec.seed
                in
                let passes = ref 0 and skipped = ref 0 and delays = ref 0 in
                let sink =
                  {
                    Obs.Sink.now = 0.;
                    enabled = true;
                    emit =
                      (fun _ e ->
                        match e with
                        | Obs.Event.Commute_pass { skipped = k; _ } ->
                          incr passes;
                          skipped := !skipped + k
                        | _ -> ());
                  }
                in
                Array.iter
                  (fun a ->
                    let s =
                      Sched.Driver.run ~sink (mk sink) ~fmt ~arrivals:a
                    in
                    delays := !delays + s.Sched.Driver.delays)
                  arrivals;
                {
                  sem_scheduler = name;
                  sem_mix = mix;
                  sem_n = n;
                  sem_m = m;
                  sem_breadth = breadth;
                  sem_delays = !delays;
                  commute_passes = !passes;
                  commute_skipped = !skipped;
                })
              (sem_schedulers syntax))
          sizes)
      mixes

let sharded_name k = Printf.sprintf "sharded-k%d" k

(* The sharded section compares monolithic SGT against the sharded
   engine across K on partition-sensitive workloads: [disjoint] is the
   zero-coordination best case (every transaction single-shard), [hot]
   and [skewed] keep contention so the coordinator path is timed too.
   Sizes favour many small transactions — the regime the per-shard
   graphs are built for. *)
let sharded_schedulers ks syntax =
  ("SGT", fun () -> Sched.Sgt.create ~syntax ())
  :: List.map
       (fun k ->
         ( sharded_name k,
           fun () -> Sched.Sharded.create ~shards:k ~syntax () ))
       ks

let parallel_name ~domains ~queue =
  Printf.sprintf "parallel-d%d-%s" domains (Sched.Chan.kind_name queue)

(* Wall-clock timing of the domain-parallel engine, one variant per
   (domain count, channel build), same interleaved-round discipline as
   the simulated sections. Every variant replays identical arrival
   streams, so req/s ratios against the d1 variant are the engine's
   wall-clock scaling curve. Contended mixes are capped at n <= 256
   like the sharded section, and for the same reason. *)
let run_parallel_section spec =
  match spec.par_domains with
  | [] -> []
  | ds ->
    let variants =
      List.concat_map
        (fun d -> List.map (fun q -> (d, q)) spec.par_queues)
        ds
    in
    List.concat_map
      (fun mix ->
        let sizes =
          if mix = "disjoint" then spec.par_sizes
          else List.filter (fun (n, _) -> n <= 256) spec.par_sizes
        in
        List.concat_map
          (fun (n, m) ->
            let st =
              Random.State.make [| spec.seed; Hashtbl.hash mix; n; m; 0x9a7 |]
            in
            let syntax = syntax_of_mix st ~mix ~n ~m ~n_vars:spec.n_vars in
            let fmt = Syntax.format syntax in
            let arrivals =
              Array.init spec.par_streams (fun _ ->
                  Combin.Interleave.random st fmt)
            in
            let pass (domains, queue) () =
              Array.fold_left
                (fun acc a ->
                  let r =
                    Sched.Parallel.run ~queue ~domains
                      ~shards:domains ~syntax ~arrivals:(Array.copy a)
                      ()
                  in
                  acc + r.Sched.Parallel.grants + r.Sched.Parallel.delays
                  + r.Sched.Parallel.restarts)
                0 arrivals
            in
            let cells =
              time_cells ~min_time:spec.min_time
                (Array.of_list (List.map pass variants))
            in
            List.mapi
              (fun j (domains, queue) ->
                let requests, seconds = cells.(j) in
                {
                  scheduler = parallel_name ~domains ~queue;
                  mix;
                  n;
                  m;
                  requests;
                  seconds;
                  req_per_sec =
                    (if seconds > 0. then float_of_int requests /. seconds
                     else 0.);
                })
              variants)
          sizes)
      spec.par_mixes

let run spec =
  run_section spec ~mixes:spec.mixes ~sizes:spec.sizes
    ~named_of_syntax:schedulers
  @ (match (spec.mv_mixes, spec.mv_sizes) with
    | [], _ | _, [] -> []
    | mixes, sizes ->
      run_section spec ~mixes ~sizes ~named_of_syntax:mv_timing)
  @ (match (spec.sem_mixes, spec.sem_sizes) with
    | [], _ | _, [] -> []
    | mixes, sizes ->
      run_section spec ~mixes ~sizes ~named_of_syntax:sem_timing)
  @ (match spec.shard_ks with
    | [] -> []
    | ks ->
      (* Contended mixes are capped at n <= 256: a single hot/skewed run
         at n >= 512 takes seconds (wound-wait churn on a near-complete
         conflict graph), which would starve every other cell of its time
         budget. Disjoint cells run at every requested size — that is the
         scaling story the sharded section exists to measure. *)
      List.concat_map
        (fun mix ->
          let sizes =
            if mix = "disjoint" then spec.shard_sizes
            else List.filter (fun (n, _) -> n <= 256) spec.shard_sizes
          in
          run_section spec ~mixes:[ mix ] ~sizes
            ~named_of_syntax:(sharded_schedulers ks))
        spec.shard_mixes)
  @ run_parallel_section spec

let find rows ~scheduler ~mix ~n ~m =
  List.find_opt
    (fun r -> r.scheduler = scheduler && r.mix = mix && r.n = n && r.m = m)
    rows

let speedups rows =
  (* SGT vs the brute-force oracle, per cell *)
  List.filter_map
    (fun r ->
      if r.scheduler <> "SGT" then None
      else
        match find rows ~scheduler:"SGT-ref" ~mix:r.mix ~n:r.n ~m:r.m with
        | Some ref_row when ref_row.req_per_sec > 0. ->
          Some (r.mix, r.n, r.m, r.req_per_sec /. ref_row.req_per_sec)
        | Some _ | None -> None)
    rows

let sharded_speedups rows =
  (* the sharded engine vs monolithic SGT in the same cell, per K *)
  List.filter_map
    (fun r ->
      match
        String.length r.scheduler > 9
        && String.sub r.scheduler 0 9 = "sharded-k"
      with
      | false -> None
      | true -> (
        match find rows ~scheduler:"SGT" ~mix:r.mix ~n:r.n ~m:r.m with
        | Some sgt when sgt.req_per_sec > 0. ->
          let k =
            int_of_string
              (String.sub r.scheduler 9 (String.length r.scheduler - 9))
          in
          Some (r.mix, r.n, r.m, k, r.req_per_sec /. sgt.req_per_sec)
        | Some _ | None -> None))
    rows

let semantic_speedups rows =
  (* the semantic engine vs rw-SGT in the same typed-counter cell *)
  List.filter_map
    (fun r ->
      if r.scheduler <> "semantic" then None
      else
        match find rows ~scheduler:"SGT" ~mix:r.mix ~n:r.n ~m:r.m with
        | Some sgt when sgt.req_per_sec > 0. ->
          Some (r.mix, r.n, r.m, r.req_per_sec /. sgt.req_per_sec)
        | Some _ | None -> None)
    rows

let parallel_speedups rows =
  (* every multi-domain parallel variant vs the single-domain variant
     of the same channel build, per cell: the wall-clock scaling curve *)
  List.filter_map
    (fun r ->
      match String.split_on_char '-' r.scheduler with
      | [ "parallel"; d; q ] when String.length d > 1 && d.[0] = 'd' -> (
        match int_of_string_opt (String.sub d 1 (String.length d - 1)) with
        | Some domains when domains > 1 -> (
          match
            find rows
              ~scheduler:(Printf.sprintf "parallel-d1-%s" q)
              ~mix:r.mix ~n:r.n ~m:r.m
          with
          | Some base when base.req_per_sec > 0. ->
            Some (r.mix, r.n, r.m, q, domains, r.req_per_sec /. base.req_per_sec)
          | Some _ | None -> None)
        | _ -> None)
      | _ -> None)
    rows

(* ---------- distributed-commit (2PC) section ---------- *)

type twopc_stat = {
  fault_rate : float;
  tp_rounds : int;
  tp_commits : int;
  tp_aborts : int;
  abort_rate : float;
  avg_latency : float;
  avg_blocking : float;
  max_blocking : float;
  tp_msgs : int;
  tp_crashes : int;
}

type twopc_section = {
  tp_parts : int;
  sweep : twopc_stat list;
  cc_repair : float;
  cc_avg_blocking : float;
  cc_max_blocking : float;
}

let twopc_stats spec =
  match spec.twopc_fault_rates with
  | [] -> None
  | rates ->
    let parts = List.init spec.twopc_parts (fun p -> p) in
    let sweep =
      List.map
        (fun rate ->
          let svc =
            Sched.Twopc.service ~crash_rate:rate ~slow_rate:(rate /. 2.)
              ~seed:spec.seed ~shards:spec.twopc_parts ()
          in
          for tx = 0 to spec.twopc_rounds - 1 do
            ignore (Sched.Twopc.commit svc ~tx ~shards:parts)
          done;
          let t = Sched.Twopc.totals svc in
          let fl n = float_of_int (max 1 n) in
          {
            fault_rate = rate;
            tp_rounds = t.Sched.Twopc.rounds;
            tp_commits = t.Sched.Twopc.committed;
            tp_aborts = t.Sched.Twopc.aborted;
            abort_rate =
              float_of_int t.Sched.Twopc.aborted /. fl t.Sched.Twopc.rounds;
            avg_latency = t.Sched.Twopc.latency_sum /. fl t.Sched.Twopc.rounds;
            avg_blocking =
              t.Sched.Twopc.blocking_sum /. fl t.Sched.Twopc.rounds;
            max_blocking = t.Sched.Twopc.blocking_max;
            tp_msgs = t.Sched.Twopc.total_msgs;
            tp_crashes = t.Sched.Twopc.total_crashes;
          })
        rates
    in
    (* The headline number of the section: the coordinator crashes
       between collecting the votes and broadcasting the decision, so
       every yes-voter sits in doubt until the coordinator is back —
       the blocking window of 2PC, measured over every crash placement
       inside the vote-collection phase. *)
    let cc_repair = 25. in
    let coord = spec.twopc_parts in
    let cfg = Sched.Twopc.default in
    let windows =
      List.map
        (fun at_input ->
          let r =
            Sched.Twopc.round cfg ~nodes:(spec.twopc_parts + 1) ~coord ~parts
              ~tx:0 ~seed:spec.seed
              ~faults:
                [ Sched.Twopc.Crash { node = coord; at_input; repair = cc_repair } ]
              ()
          in
          r.Sched.Twopc.blocking)
        (List.init spec.twopc_parts (fun i -> i + 1))
    in
    let nonzero = List.filter (fun w -> w > 0.) windows in
    let cc_avg_blocking =
      match nonzero with
      | [] -> 0.
      | ws -> List.fold_left ( +. ) 0. ws /. float_of_int (List.length ws)
    in
    let cc_max_blocking = List.fold_left max 0. windows in
    Some { tp_parts = spec.twopc_parts; sweep; cc_repair; cc_avg_blocking;
           cc_max_blocking }

let pp_twopc ppf (s : twopc_section) =
  Format.fprintf ppf
    "@[<v>2PC over %d participants (coordinator-crash blocking: avg %.1f / \
     max %.1f at repair %.1f):@," s.tp_parts s.cc_avg_blocking
    s.cc_max_blocking s.cc_repair;
  Format.fprintf ppf "%-10s %8s %8s %8s %10s %10s %10s %10s@," "fault"
    "rounds" "commits" "aborts" "abort%" "latency" "blocking" "msgs";
  List.iter
    (fun t ->
      Format.fprintf ppf "%-10.2f %8d %8d %8d %9.1f%% %10.2f %10.2f %10d@,"
        t.fault_rate t.tp_rounds t.tp_commits t.tp_aborts
        (100. *. t.abort_rate) t.avg_latency t.avg_blocking t.tp_msgs)
    s.sweep;
  Format.fprintf ppf "@]"

(* ---------- JSON ---------- *)

let to_json ?(mv = []) ?twopc ?(semantic = []) spec rows =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  add "{\n";
  add "  \"benchmark\": \"sched\",\n";
  add "  \"unit\": \"requests_per_second\",\n";
  add
    (Printf.sprintf
       "  \"config\": { \"n_vars\": %d, \"streams\": %d, \"min_time\": %g, \
        \"seed\": %d, \"shard_ks\": [%s] },\n"
       spec.n_vars spec.streams spec.min_time spec.seed
       (String.concat ", " (List.map string_of_int spec.shard_ks)));
  add "  \"results\": [\n";
  List.iteri
    (fun i r ->
      add
        (Printf.sprintf
           "    { \"scheduler\": \"%s\", \"mix\": \"%s\", \"n\": %d, \"m\": \
            %d, \"requests\": %d, \"seconds\": %.6f, \"req_per_sec\": %.1f }%s\n"
           (Obs.Json.escape r.scheduler) (Obs.Json.escape r.mix) r.n r.m r.requests
           r.seconds r.req_per_sec
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  add "  ],\n";
  add "  \"sgt_speedup_vs_ref\": {\n";
  let sp = speedups rows in
  List.iteri
    (fun i (mix, n, m, ratio) ->
      add
        (Printf.sprintf "    \"%s/%dx%d\": %.2f%s\n" (Obs.Json.escape mix) n m
           ratio
           (if i = List.length sp - 1 then "" else ",")))
    sp;
  add "  },\n";
  add "  \"sharded_speedup_vs_sgt\": {\n";
  let ssp = sharded_speedups rows in
  List.iteri
    (fun i (mix, n, m, k, ratio) ->
      add
        (Printf.sprintf "    \"%s/%dx%d/k%d\": %.2f%s\n" (Obs.Json.escape mix) n
           m k ratio
           (if i = List.length ssp - 1 then "" else ",")))
    ssp;
  add "  },\n";
  (match parallel_speedups rows with
  | [] -> ()
  | psp ->
    (* wall-clock context the ratios cannot be read without: on a host
       with fewer cores than domains the speedup is algorithmic
       (smaller per-worker graphs and histories), not concurrent *)
    add "  \"parallel\": {\n";
    add
      (Printf.sprintf "    \"recommended_domains\": %d,\n"
         (Domain.recommended_domain_count ()));
    add
      "    \"note\": \"wall-clock ratios vs the d1 variant on identical \
       arrival streams; on hosts with fewer cores than domains the gain \
       is algorithmic (smaller per-worker state), true concurrency \
       engages on multicore\",\n";
    add "    \"speedup_vs_d1\": {\n";
    List.iteri
      (fun i (mix, n, m, q, d, ratio) ->
        add
          (Printf.sprintf "      \"%s/%dx%d/%s/d%d\": %.2f%s\n"
             (Obs.Json.escape mix) n m (Obs.Json.escape q) d ratio
             (if i = List.length psp - 1 then "" else ",")))
      psp;
    add "    }\n";
    add "  },\n");
  (match twopc with
  | None -> ()
  | Some (s : twopc_section) ->
    add "  \"twopc\": {\n";
    add
      (Printf.sprintf "    \"parts\": %d,\n    \"rounds_per_rate\": %d,\n"
         s.tp_parts spec.twopc_rounds);
    add "    \"sweep\": [\n";
    List.iteri
      (fun i t ->
        add
          (Printf.sprintf
             "      { \"fault_rate\": %.3f, \"rounds\": %d, \"commits\": %d, \
              \"aborts\": %d, \"abort_rate\": %.4f, \"avg_commit_latency\": \
              %.3f, \"avg_blocking\": %.3f, \"max_blocking\": %.3f, \
              \"msgs\": %d, \"crashes\": %d }%s\n"
             t.fault_rate t.tp_rounds t.tp_commits t.tp_aborts t.abort_rate
             t.avg_latency t.avg_blocking t.max_blocking t.tp_msgs
             t.tp_crashes
             (if i = List.length s.sweep - 1 then "" else ",")))
      s.sweep;
    add "    ],\n";
    add
      (Printf.sprintf
         "    \"coordinator_crash\": { \"repair\": %.1f, \"avg_blocking\": \
          %.3f, \"max_blocking\": %.3f }\n"
         s.cc_repair s.cc_avg_blocking s.cc_max_blocking);
    add "  },\n");
  (match semantic with
  | [] -> ()
  | sem ->
    add
      (Printf.sprintf
         "  \"semantic_section\": {\n    \"samples\": %d,\n    \"results\": [\n"
         spec.sem_samples);
    List.iteri
      (fun i s ->
        add
          (Printf.sprintf
             "      { \"scheduler\": \"%s\", \"mix\": \"%s\", \"n\": %d, \
              \"m\": %d, \"breadth\": %.4f, \"delays\": %d, \
              \"commute_passes\": %d, \"commute_skipped\": %d }%s\n"
             (Obs.Json.escape s.sem_scheduler) (Obs.Json.escape s.sem_mix) s.sem_n
             s.sem_m s.sem_breadth s.sem_delays s.commute_passes
             s.commute_skipped
             (if i = List.length sem - 1 then "" else ",")))
      sem;
    add "    ],\n";
    add "    \"speedup_vs_sgt\": {\n";
    let ssp = semantic_speedups rows in
    List.iteri
      (fun i (mix, n, m, ratio) ->
        add
          (Printf.sprintf "      \"%s/%dx%d\": %.2f%s\n" (Obs.Json.escape mix) n
             m ratio
             (if i = List.length ssp - 1 then "" else ",")))
      ssp;
    add "    }\n";
    add "  },\n");
  add
    (Printf.sprintf "  \"mv_section\": {\n    \"samples\": %d,\n    \"results\": [\n"
       spec.mv_samples);
  List.iteri
    (fun i s ->
      add
        (Printf.sprintf
           "      { \"scheduler\": \"%s\", \"mix\": \"%s\", \"n\": %d, \"m\": \
            %d, \"breadth\": %.4f, \"commits\": %d, \"ww_aborts\": %d, \
            \"pivot_aborts\": %d, \"false_positive_aborts\": %d }%s\n"
           (Obs.Json.escape s.mv_scheduler) (Obs.Json.escape s.mv_mix) s.mv_n s.mv_m
           s.breadth s.mv_commits s.ww_aborts s.pivot_aborts
           s.false_positive_aborts
           (if i = List.length mv - 1 then "" else ",")))
    mv;
  add "    ]\n  }\n";
  add "}\n";
  Buffer.contents b

(* Minimal recursive-descent well-formedness check over the JSON we
   emit (objects, arrays, strings, numbers, true/false/null). Used by
   the @check bench smoke so the harness cannot rot into emitting
   garbage silently. [members_of] additionally records the raw extent
   of each top-level member, which is what lets [--out] regeneration
   preserve keys this emitter knows nothing about. *)
let scan s ~on_member =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let fail = ref false in
  let expect c =
    if peek () = Some c then advance () else fail := true
  in
  let literal lit =
    String.iter (fun c -> expect c) lit
  in
  let string_lit () =
    expect '"';
    let rec go () =
      if !fail then ()
      else
        match peek () with
        | None -> fail := true
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
            advance ();
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
              | _ -> fail := true
            done
          | _ -> fail := true);
          go ()
        | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let seen = ref false in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          seen := true;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if not !seen then fail := true
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  in
  let depth = ref 0 in
  let rec value () =
    if !fail then ()
    else begin
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        incr depth;
        skip_ws ();
        if peek () = Some '}' then advance ()
        else begin
          let rec members () =
            skip_ws ();
            let kstart = !pos + 1 in
            string_lit ();
            let kstop = !pos - 1 in
            skip_ws ();
            expect ':';
            skip_ws ();
            let vstart = !pos in
            value ();
            if !depth = 1 && (not !fail) && kstop >= kstart then
              on_member
                ~key:(String.sub s kstart (kstop - kstart))
                ~value:(String.sub s vstart (!pos - vstart));
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ()
            | Some '}' -> advance ()
            | _ -> fail := true
          in
          members ()
        end;
        decr depth
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else begin
          let rec items () =
            value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items ()
            | Some ']' -> advance ()
            | _ -> fail := true
          in
          items ()
        end
      | Some '"' -> string_lit ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail := true
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let json_well_formed s = scan s ~on_member:(fun ~key:_ ~value:_ -> ())

let toplevel_members s =
  let acc = ref [] in
  let is_object =
    match String.index_opt s '{' with
    | Some i -> String.trim (String.sub s 0 i) = ""
    | None -> false
  in
  if is_object && scan s ~on_member:(fun ~key ~value -> acc := (key, value) :: !acc)
  then Some (List.rev !acc)
  else None

let trim_right s =
  let l = ref (String.length s) in
  while !l > 0 && (match s.[!l - 1] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
    decr l
  done;
  String.sub s 0 !l

let merge_preserving ~existing fresh =
  match (toplevel_members existing, toplevel_members fresh) with
  | Some old_kvs, Some new_kvs -> (
    let extra =
      List.filter (fun (k, _) -> not (List.mem_assoc k new_kvs)) old_kvs
    in
    if extra = [] then fresh
    else
      match String.rindex_opt fresh '}' with
      | None -> fresh
      | Some close ->
        let b = Buffer.create (String.length fresh + 256) in
        Buffer.add_string b (trim_right (String.sub fresh 0 close));
        List.iter
          (fun (k, v) ->
            Buffer.add_string b
              (Printf.sprintf ",\n  \"%s\": %s" k (String.trim v)))
          extra;
        Buffer.add_string b "\n}";
        Buffer.add_string b
          (String.sub fresh (close + 1) (String.length fresh - close - 1));
        Buffer.contents b)
  | _ -> fresh

(* ---------- text rendering ---------- *)

let pp_rows ppf rows =
  Format.fprintf ppf "%-8s %-8s %6s %12s %10s %14s@." "mix" "sched" "n x m"
    "requests" "seconds" "req/s";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-8s %-8s %3dx%-3d %12d %10.4f %14.1f@." r.mix
        r.scheduler r.n r.m r.requests r.seconds r.req_per_sec)
    rows;
  (match speedups rows with
  | [] -> ()
  | sp ->
    Format.fprintf ppf "@.SGT speedup vs SGT-ref:@.";
    List.iter
      (fun (mix, n, m, ratio) ->
        Format.fprintf ppf "  %-8s %3dx%-3d %6.2fx@." mix n m ratio)
      sp);
  (match sharded_speedups rows with
  | [] -> ()
  | ssp ->
    Format.fprintf ppf "@.sharded speedup vs SGT:@.";
    List.iter
      (fun (mix, n, m, k, ratio) ->
        Format.fprintf ppf "  %-8s %3dx%-3d K=%-2d %6.2fx@." mix n m k ratio)
      ssp);
  (match semantic_speedups rows with
  | [] -> ()
  | ssp ->
    Format.fprintf ppf "@.semantic speedup vs SGT:@.";
    List.iter
      (fun (mix, n, m, ratio) ->
        Format.fprintf ppf "  %-10s %3dx%-3d %6.2fx@." mix n m ratio)
      ssp);
  match parallel_speedups rows with
  | [] -> ()
  | psp ->
    Format.fprintf ppf
      "@.parallel wall-clock speedup vs 1 domain (%d cores recommended):@."
      (Domain.recommended_domain_count ());
    List.iter
      (fun (mix, n, m, q, d, ratio) ->
        Format.fprintf ppf "  %-8s %3dx%-3d %-6s d=%-2d %6.2fx@." mix n m q d
          ratio)
      psp

let pp_sem_stats ppf stats =
  match stats with
  | [] -> ()
  | stats ->
    Format.fprintf ppf
      "@.commutativity admission (|P|/|H|, delays and commute passes):@.";
    Format.fprintf ppf "%-12s %-9s %6s %9s %7s %7s %8s@." "mix" "sched"
      "n x m" "breadth" "delays" "passes" "skipped";
    List.iter
      (fun s ->
        Format.fprintf ppf "%-12s %-9s %3dx%-3d %9.3f %7d %7d %8d@."
          s.sem_mix s.sem_scheduler s.sem_n s.sem_m s.sem_breadth
          s.sem_delays s.commute_passes s.commute_skipped)
      stats

let pp_mv_stats ppf stats =
  match stats with
  | [] -> ()
  | stats ->
    Format.fprintf ppf "@.multi-version admission (|P|/|H| and aborts):@.";
    Format.fprintf ppf "%-10s %-8s %6s %9s %8s %6s %6s %9s@." "mix" "sched"
      "n x m" "breadth" "commits" "ww" "pivot" "false-pos";
    List.iter
      (fun s ->
        Format.fprintf ppf "%-10s %-8s %3dx%-3d %9.3f %8d %6d %6d %9d@."
          s.mv_mix s.mv_scheduler s.mv_n s.mv_m s.breadth s.mv_commits
          s.ww_aborts s.pivot_aborts s.false_positive_aborts)
      stats
