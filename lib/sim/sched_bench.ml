open Core

type spec = {
  sizes : (int * int) list;
  mixes : string list;
  n_vars : int;
  streams : int;
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
  (* distributed-commit section; empty [twopc_fault_rates] skips it.
     Each rate drives [twopc_rounds] commit rounds through a
     [Sched.Twopc.service] over [twopc_parts] participants, with the
     crash rate at the sweep value and the slow-link rate at half it. *)
  twopc_fault_rates : float list;
  twopc_rounds : int;
  twopc_parts : int;
}

let default =
  {
    sizes = [ (4, 4); (8, 8); (16, 8) ];
    mixes = [ "uniform"; "hot"; "skewed" ];
    n_vars = 8;
    streams = 20;
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

(* SGT-ref is not in the table: its decisions equal SGT's
   ([test_sgt_diff]), so its row would repeat SGT's. *)
let schedulers syntax =
  [
    ("serial", fun () -> Sched.Serial_sched.create ~fmt:(Syntax.format syntax));
    ("2PL", fun () -> Sched.Tpl_sched.create_2pl ~syntax ());
    ("TO", fun () -> Sched.Timestamp.create ~syntax ());
    ("SGT", fun () -> Sched.Sgt.create ~syntax ());
  ]

(* Every section builds its cells the same way: a fresh deterministic
   rng per (mix, n, m) yields the syntax and the arrival streams that
   every engine of the cell replays. A section's [salt] keeps its
   streams apart from the other sections'. [capped] limits contended
   mixes to n <= 256: a single hot/skewed run at n >= 512 takes
   seconds (wound-wait churn on a near-complete conflict graph), while
   disjoint cells run at every size — that is the scaling story the
   sharded section tells. *)
let in_cells spec ?(salt = [||]) ?(capped = false) mixes sizes f =
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
            Array.init spec.streams (fun _ -> Combin.Interleave.random st fmt)
          in
          f ~mix ~n ~m ~syntax ~fmt ~arrivals)
        (if capped && mix <> "disjoint" then
           List.filter (fun (n, _) -> n <= 256) sizes
         else sizes))
    mixes

(* The decision-cost tables: per cell and engine, the committed steps,
   Delay verdicts and restarts of {!Sched.Driver.run}, summed over the
   cell's streams. Every engine commits every step, so the cost columns
   compare engines on the same work. *)
type cost = {
  scheduler : string;
  cell : string * int * int;
  committed : int;
  delays : int;
  restarts : int;
}

let costs spec ?capped mixes sizes engines =
  in_cells spec ?capped mixes sizes (fun ~mix ~n ~m ~syntax ~fmt ~arrivals ->
      List.map
        (fun (scheduler, mk) ->
          Array.fold_left
            (fun c a ->
              let s = Sched.Driver.run (mk ()) ~fmt ~arrivals:a in
              {
                c with
                committed = c.committed + Array.length s.Sched.Driver.output;
                delays = c.delays + s.Sched.Driver.delays;
                restarts = c.restarts + s.Sched.Driver.restarts;
              })
            { scheduler; cell = (mix, n, m); committed = 0; delays = 0;
              restarts = 0 }
            arrivals)
        (engines syntax))

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

(* The sharded section compares monolithic SGT against the sharded
   engine across K on partition-sensitive workloads: [disjoint] is the
   zero-coordination best case (every transaction single-shard), [hot]
   and [skewed] keep contention so the coordinator path decides too.
   Sizes favour many small transactions — the regime the per-shard
   graphs are built for. *)
let sharded_schedulers ks syntax =
  ("SGT", fun () -> Sched.Sgt.create ~syntax ())
  :: List.map
       (fun k ->
         ( Printf.sprintf "sharded-k%d" k,
           fun () -> Sched.Sharded.create ~shards:k ~syntax () ))
       ks

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

let per_step k committed =
  Obs.Json.fixed 4 (float_of_int k /. float_of_int (max 1 committed))

let json_of_cost { scheduler; cell = mix, n, m; committed; delays; restarts } =
  Obs.Json.(
    Object
      [
        ("scheduler", String scheduler);
        ("mix", String mix);
        ("n", Int n);
        ("m", Int m);
        ("committed_steps", Int committed);
        ("delays", Int delays);
        ("restarts", Int restarts);
        ("delays_per_step", per_step delays committed);
        ("restarts_per_step", per_step restarts committed);
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

let sections spec =
  let open Obs.Json in
  let section title member value = { title; member; value } in
  let table rows = Array (List.map json_of_cost rows) in
  let admitted samples rows =
    Object
      [
        ("samples", Int samples);
        ("results", Array (List.map json_of_admission rows));
      ]
  in
  [
    section "decision cost per committed step" "results"
      (table (costs spec spec.mixes spec.sizes schedulers));
    section "sharded decision cost per committed step" "sharded"
      (table
         (if spec.shard_ks = [] then []
          else
            costs spec ~capped:true spec.shard_mixes spec.shard_sizes
              (sharded_schedulers spec.shard_ks)));
  ]
  @ (match twopc_stats spec with
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
  @ [
      section "commutativity admission (|P|/|H|, delays, commute passes)"
        "semantic_section"
        (admitted spec.sem_samples (sem_stats spec));
      section "multi-version admission (|P|/|H| and aborts)" "mv_section"
        (admitted spec.mv_samples (mv_stats spec));
    ]

let to_json spec sections =
  Obs.Json.(
    Object
      ([
         ("benchmark", String "sched");
         ("unit", String "delays and restarts per committed step");
         ( "config",
           Object
             [
               ("n_vars", Int spec.n_vars);
               ("streams", Int spec.streams);
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
