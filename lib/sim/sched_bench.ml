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
   total) is spent. Each entry of [passes] runs one whole pass of its
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

(* Every section builds its cells the same way: a fresh deterministic
   rng per (mix, n, m) yields the syntax and the arrival streams that
   every engine of the cell replays. A section's [salt] keeps its
   streams apart from the other sections'. [capped] limits contended
   mixes to n <= 256: a single hot/skewed run at n >= 512 takes
   seconds (wound-wait churn on a near-complete conflict graph),
   starving every other cell of its time budget, while disjoint cells
   run at every size — that is the scaling story the sharded and
   parallel sections measure. *)
let in_cells spec ?(salt = [||]) ?(streams = spec.streams) ?(capped = false)
    mixes sizes f =
  List.concat_map
    (fun mix ->
      List.concat_map
        (fun (n, m) ->
          let st =
            Random.State.make
              (Array.append [| spec.seed; Hashtbl.hash mix; n; m |] salt)
          in
          let syntax = syntax_of_mix st ~mix ~n ~m ~n_vars:spec.n_vars in
          let fmt = Syntax.format syntax in
          let arrivals =
            Array.init streams (fun _ -> Combin.Interleave.random st fmt)
          in
          f ~mix ~n ~m ~syntax ~fmt ~arrivals)
        (if capped && mix <> "disjoint" then
           List.filter (fun (n, _) -> n <= 256) sizes
         else sizes))
    mixes

let row ~scheduler ~mix ~n ~m (requests, seconds) =
  let req_per_sec =
    if seconds > 0. then float_of_int requests /. seconds else 0.
  in
  { scheduler; mix; n; m; requests; seconds; req_per_sec }

let run_section spec ?capped mixes sizes named_of_syntax =
  in_cells spec ?capped mixes sizes (fun ~mix ~n ~m ~syntax ~fmt ~arrivals ->
      let named = named_of_syntax syntax in
      let pass mk () =
        Array.fold_left
          (fun acc a ->
            acc + requests_of (Sched.Driver.run (mk ()) ~fmt ~arrivals:a))
          0 arrivals
      in
      let cells =
        time_cells ~min_time:spec.min_time
          (Array.of_list (List.map (fun (_, mk) -> pass mk) named))
      in
      List.mapi (fun j (scheduler, _) -> row ~scheduler ~mix ~n ~m cells.(j))
        named)

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

(* The commutativity section pits rw-SGT against the semantic engine on
   typed counter mixes — identical machinery, the only delta being the
   {!Core.Commute} filter on conflict edges. *)
let sem_schedulers syntax =
  [
    ("SGT", fun sink -> Sched.Sgt.create ~sink ~syntax ());
    ("semantic", fun sink -> Sched.Semantic.create ~sink ~syntax ());
  ]

let untraced engines syntax =
  List.map
    (fun (name, mk) -> (name, fun () -> mk Obs.Sink.null))
    (engines syntax)

type admission = {
  engine : string;
  cell : string * int * int;
  breadth : float;
  tallies : (string * int) list;
}

(* The admission tables: per cell and engine, the Monte-Carlo breadth
   and the named event tallies [count] keeps (by index into [names])
   over one traced pass of the cell's streams. *)
let admission spec ~salt ~samples ~names mixes sizes engines count =
  in_cells spec ~salt:[| salt |] mixes sizes
    (fun ~mix ~n ~m ~syntax ~fmt ~arrivals ->
      List.map
        (fun (engine, mk) ->
          let breadth =
            Sched.Driver.zero_delay_fraction
              (fun () -> mk Obs.Sink.null)
              ~fmt ~samples ~seed:spec.seed
          in
          let t = Array.make (List.length names) 0 in
          let bump i k = t.(i) <- t.(i) + k in
          let emit _ e = count bump e in
          let sink = { Obs.Sink.now = 0.; enabled = true; emit } in
          Array.iter
            (fun a ->
              ignore (Sched.Driver.run ~sink (mk sink) ~fmt ~arrivals:a))
            arrivals;
          let tallies = List.mapi (fun i k -> (k, t.(i))) names in
          { engine; cell = (mix, n, m); breadth; tallies })
        (engines syntax))

let mv_stats spec =
  admission spec ~salt:0x6d76 ~samples:spec.mv_samples
    ~names:[ "commits"; "ww_aborts"; "pivot_aborts"; "false_positive_aborts" ]
    spec.mv_mixes spec.mv_sizes mv_schedulers (fun bump -> function
    | Obs.Event.Committed _ -> bump 0 1
    | Obs.Event.Ww_refused _ -> bump 1 1
    | Obs.Event.Pivot_refused { cyclic; _ } ->
      bump 2 1;
      if not cyclic then bump 3 1
    | _ -> ())

let sem_stats spec =
  admission spec ~salt:0x5e6d ~samples:spec.sem_samples
    ~names:[ "delays"; "commute_passes"; "commute_skipped" ]
    spec.sem_mixes spec.sem_sizes sem_schedulers (fun bump -> function
    | Obs.Event.Delayed _ -> bump 0 1
    | Obs.Event.Commute_pass { skipped; _ } ->
      bump 1 1;
      bump 2 skipped
    | _ -> ())

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
   wall-clock scaling curve. *)
let run_parallel_section spec =
  let variants =
    List.concat_map
      (fun d -> List.map (fun q -> (d, q)) spec.par_queues)
      spec.par_domains
  in
  if variants = [] then []
  else
    in_cells spec ~salt:[| 0x9a7 |] ~streams:spec.par_streams ~capped:true
      spec.par_mixes spec.par_sizes (fun ~mix ~n ~m ~syntax ~fmt:_ ~arrivals ->
        let pass (domains, queue) () =
          Array.fold_left
            (fun acc a ->
              let r =
                Sched.Parallel.run ~queue ~domains ~shards:domains ~syntax
                  ~arrivals:(Array.copy a) ()
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
            row ~scheduler:(parallel_name ~domains ~queue) ~mix ~n ~m cells.(j))
          variants)

let run spec =
  run_section spec spec.mixes spec.sizes schedulers
  @ run_section spec spec.mv_mixes spec.mv_sizes (untraced mv_schedulers)
  @ run_section spec spec.sem_mixes spec.sem_sizes (untraced sem_schedulers)
  @ (if spec.shard_ks = [] then []
     else
       run_section spec ~capped:true spec.shard_mixes spec.shard_sizes
         (sharded_schedulers spec.shard_ks))
  @ run_parallel_section spec

let find rows ~scheduler ~mix ~n ~m =
  List.find_opt
    (fun r -> r.scheduler = scheduler && r.mix = mix && r.n = n && r.m = m)
    rows

(* Per cell, a row's req/s over its base row's in the same cell, as the
   JSON map ["<mix>/<n>x<m><suffix>": ratio]. [pick] names the base
   scheduler and the key suffix of every row it compares. *)
let ratios rows pick =
  Obs.Json.Object
    (List.filter_map
       (fun r ->
         match pick r.scheduler with
         | None -> None
         | Some (base, suffix) -> (
           match find rows ~scheduler:base ~mix:r.mix ~n:r.n ~m:r.m with
           | Some b when b.req_per_sec > 0. ->
             Some
               ( Printf.sprintf "%s/%dx%d%s" r.mix r.n r.m suffix,
                 Obs.Json.fixed 2 (r.req_per_sec /. b.req_per_sec) )
           | Some _ | None -> None))
       rows)

(* SGT vs the brute-force oracle, the semantic engine vs rw-SGT and the
   sharded engine vs monolithic SGT (per K) in the same cell, and every
   multi-domain parallel variant vs the single-domain variant of the
   same channel build: the wall-clock scaling curve. *)
let vs_ref = function "SGT" -> Some ("SGT-ref", "") | _ -> None
let vs_sgt = function "semantic" -> Some ("SGT", "") | _ -> None

let sharded_vs_sgt s =
  if String.starts_with ~prefix:"sharded-k" s then
    Some ("SGT", "/" ^ String.sub s 8 (String.length s - 8))
  else None

let parallel_vs_d1 s =
  match String.split_on_char '-' s with
  | [ "parallel"; d; q ] when d <> "d1" && String.starts_with ~prefix:"d" d ->
    Some ("parallel-d1-" ^ q, "/" ^ q ^ "/" ^ d)
  | _ -> None

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

(* ---------- sections: one record per JSON member and text table ---------- *)

type section = { title : string; member : string; value : Obs.Json.t }

let json_of_row r =
  Obs.Json.(
    Object
      [
        ("scheduler", String r.scheduler);
        ("mix", String r.mix);
        ("n", Int r.n);
        ("m", Int r.m);
        ("requests", Int r.requests);
        ("seconds", fixed 6 r.seconds);
        ("req_per_sec", fixed 1 r.req_per_sec);
      ])

let json_of_admission { engine; cell = mix, n, m; breadth; tallies } =
  Obs.Json.(
    Object
      ([
         ("scheduler", String engine);
         ("mix", String mix);
         ("n", Int n);
         ("m", Int m);
         ("breadth", fixed 4 breadth);
       ]
      @ List.map (fun (k, c) -> (k, Int c)) tallies))

let json_of_twopc t =
  Obs.Json.(
    Object
      [
        ("fault_rate", fixed 3 t.fault_rate);
        ("rounds", Int t.tp_rounds);
        ("commits", Int t.tp_commits);
        ("aborts", Int t.tp_aborts);
        ("abort_rate", fixed 4 t.abort_rate);
        ("avg_commit_latency", fixed 3 t.avg_latency);
        ("avg_blocking", fixed 3 t.avg_blocking);
        ("max_blocking", fixed 3 t.max_blocking);
        ("msgs", Int t.tp_msgs);
        ("crashes", Int t.tp_crashes);
      ])

let sections ?(mv = []) ?twopc ?(semantic = []) spec rows =
  let open Obs.Json in
  let section title member value = { title; member; value } in
  let parallel = ratios rows parallel_vs_d1 in
  [
    section "requests per second" "results" (Array (List.map json_of_row rows));
    section "SGT speedup vs SGT-ref" "sgt_speedup_vs_ref" (ratios rows vs_ref);
    section "sharded speedup vs SGT" "sharded_speedup_vs_sgt"
      (ratios rows sharded_vs_sgt);
  ]
  @ (if parallel = Object [] then []
     else
       (* wall-clock context the ratios cannot be read without: on a host
          with fewer cores than domains the speedup is algorithmic
          (smaller per-worker graphs and histories), not concurrent *)
       [
         section "parallel wall-clock speedup vs 1 domain" "parallel"
           (Object
              [
                ( "recommended_domains",
                  Int (Domain.recommended_domain_count ()) );
                ( "note",
                  String
                    "wall-clock ratios vs the d1 variant on identical arrival \
                     streams; on hosts with fewer cores than domains the gain \
                     is algorithmic (smaller per-worker state), true \
                     concurrency engages on multicore" );
                ("speedup_vs_d1", parallel);
              ]);
       ])
  @ (match twopc with
    | None -> []
    | Some s ->
      [
        section "2PC commit rounds by fault rate" "twopc"
          (Object
             [
               ("parts", Int s.tp_parts);
               ("rounds_per_rate", Int spec.twopc_rounds);
               ("sweep", Array (List.map json_of_twopc s.sweep));
               ( "coordinator_crash",
                 Object
                   [
                     ("repair", fixed 1 s.cc_repair);
                     ("avg_blocking", fixed 3 s.cc_avg_blocking);
                     ("max_blocking", fixed 3 s.cc_max_blocking);
                   ] );
             ]);
      ])
  @ (if semantic = [] then []
     else
       [
         section "commutativity admission (|P|/|H|, delays, commute passes)"
           "semantic_section"
           (Object
              [
                ("samples", Int spec.sem_samples);
                ("results", Array (List.map json_of_admission semantic));
                ("speedup_vs_sgt", ratios rows vs_sgt);
              ]);
       ])
  @ [
      section "multi-version admission (|P|/|H| and aborts)" "mv_section"
        (Object
           [
             ("samples", Int spec.mv_samples);
             ("results", Array (List.map json_of_admission mv));
           ]);
    ]

let to_json spec sections =
  Obs.Json.(
    Object
      ([
         ("benchmark", String "sched");
         ("unit", String "requests_per_second");
         ( "config",
           Object
             [
               ("n_vars", Int spec.n_vars);
               ("streams", Int spec.streams);
               ("min_time", number (Printf.sprintf "%g" spec.min_time));
               ("seed", Int spec.seed);
               ("shard_ks", Array (List.map (fun k -> Int k) spec.shard_ks));
             ] );
       ]
      @ List.map (fun s -> (s.member, s.value)) sections))

(* ---------- text rendering ---------- *)

(* A section's text is read off its JSON value: an array of objects is
   a table under the objects' member names (numbers right-aligned), an
   object lists its scalar members as name/value lines and nests its
   containers under their names. Empty containers print nothing. *)
let text = function Obs.Json.String s -> s | v -> Obs.Json.to_string v

let numeric = function Obs.Json.Int _ | Obs.Json.Number _ -> true | _ -> false

let rec pp_value ppf ind v =
  let pad = String.make ind ' ' in
  match v with
  | Obs.Json.Array (Obs.Json.Object first :: _ as rows) ->
    let cells =
      List.map
        (function Obs.Json.Object m -> List.map snd m | v -> [ v ])
        rows
    in
    let widths =
      List.fold_left
        (List.map2 (fun w v -> max w (String.length (text v))))
        (List.map (fun (k, _) -> String.length k) first)
        cells
    in
    let line cell vs =
      Format.fprintf ppf "%s%s@." pad
        (String.concat "  "
           (List.map2
              (fun (w, (_, v0)) v ->
                let s = cell v in
                let gap = String.make (w - String.length s) ' ' in
                if numeric v0 then gap ^ s else s ^ gap)
              (List.combine widths first)
              vs))
    in
    line Fun.id (List.map fst first);
    List.iter (line text) cells
  | Obs.Json.Object members ->
    let w =
      List.fold_left (fun w (k, _) -> max w (String.length k)) 0 members
    in
    List.iter
      (fun (k, v) ->
        match v with
        | Obs.Json.Array [] | Obs.Json.Object [] -> ()
        | Obs.Json.Array (Obs.Json.Object _ :: _) | Obs.Json.Object _ ->
          Format.fprintf ppf "%s%s:@." pad k;
          pp_value ppf (ind + 2) v
        | v -> Format.fprintf ppf "%s%-*s  %s@." pad w k (text v))
      members
  | v -> Format.fprintf ppf "%s%s@." pad (text v)

let pp ppf sections =
  (* empty, or nothing but scalars beside empty containers *)
  let bare = function
    | Obs.Json.Array l -> l = []
    | Obs.Json.Object m ->
      let nested =
        List.filter_map
          (function
            | _, Obs.Json.Array l -> Some (l = [])
            | _, Obs.Json.Object l -> Some (l = [])
            | _ -> None)
          m
      in
      m = [] || (nested <> [] && List.for_all Fun.id nested)
    | _ -> false
  in
  List.iter
    (fun s ->
      if not (bare s.value) then begin
        Format.fprintf ppf "%s:@." s.title;
        pp_value ppf 2 s.value;
        Format.fprintf ppf "@."
      end)
    sections
