(* ccopt — command-line multitool for the concurrency-control optimality
   library.

     ccopt classify  --syntax "xy,yx"           fixpoint hierarchy
     ccopt herbrand  --syntax "xx,x" --schedule 010
     ccopt geometry  --syntax "xy,xy" --policy 2pl
     ccopt analyze   --syntax "xy,yx" --schedule 0101 [--policy 2pl] [--json]
     ccopt schedule  --syntax "xy,yx" --arrivals 0101 --scheduler sgt
     ccopt verify    [--k 2]                    theorem micro-universes
     ccopt measure   --syntax "xy,yx" --samples 500
     ccopt bench     [--json] [--out BENCH_sched.json]  scheduler req/s
     ccopt trace     --syntax "xy,yx" --seed 42 [--out PREFIX] [--json]
     ccopt check     --syntax "xy,yx" --scheduler sgt --seed 42
                     | --schedule 0101 | --trace FILE.events  [--levels ..]
*)

open Core

(* ---------- shared argument parsing (see Analysis.Analyze) ---------- *)

let parse_syntax = Analysis.Analyze.parse_syntax
let parse_interleaving = Analysis.Analyze.parse_interleaving
let policy_of_name = Analysis.Analyze.policy_of_name

(* Unknown scheduler names are a usage error (exit 1 with the registry
   listing), not an internal invariant failure (exit 2). *)
let registry_entry name =
  match Sched.Registry.find name with
  | Some e -> e
  | None ->
    Printf.eprintf "ccopt: unknown scheduler %s (have: %s)\n" name
      (String.concat ", " Sched.Registry.names);
    exit 1

let scheduler_of_name syntax name =
  let e = registry_entry name in
  fun () -> e.Sched.Registry.make syntax

(* ---------- subcommand bodies ---------- *)

let classify spec probes =
  let syntax = parse_syntax spec in
  let sys = Sim.Workload.counters syntax in
  let fmt = Syntax.format syntax in
  if Schedule.count fmt > 5000 then begin
    Printf.eprintf "|H| = %d too large to enumerate\n" (Schedule.count fmt);
    exit 1
  end;
  let probes = Weak_sr.default_probes ~seed:17 ~count:probes sys in
  let sets = Fixpoint.compute sys ~probes in
  let h, serial, sr, wsr, c = Fixpoint.counts sets in
  Printf.printf "|H| = %d  serial = %d  SR = %d  WSR = %d  C = %d  chain: %b\n"
    h serial sr wsr c (Fixpoint.chain_holds sets);
  Printf.printf "equivalence classes: %d (%d serializable)\n"
    (Equivalence.class_count syntax)
    (Equivalence.serializable_classes syntax)

let herbrand spec sched_spec =
  let syntax = parse_syntax spec in
  let h = Schedule.of_interleaving (parse_interleaving sched_spec) in
  if not (Schedule.is_schedule_of (Syntax.format syntax) h) then begin
    Printf.eprintf "not a schedule of the syntax\n";
    exit 1
  end;
  Format.printf "schedule %a@." Schedule.pp h;
  Format.printf "herbrand state: %a@." Herbrand.pp_state
    (Herbrand.run syntax h);
  Format.printf "conflict-serializable: %b@." (Conflict.serializable syntax h);
  match Herbrand.serialization_witness syntax h with
  | Some order ->
    Format.printf "equivalent serial order: %s@."
      (String.concat " " (List.map (fun i -> "T" ^ string_of_int (i + 1))
                            (Array.to_list order)))
  | None -> Format.printf "no equivalent serial order@."

let geometry spec policy_name =
  let syntax = parse_syntax spec in
  if Syntax.n_transactions syntax <> 2 then begin
    Printf.eprintf "geometry needs exactly two transactions\n";
    exit 1
  end;
  let policy = policy_of_name policy_name in
  let locked = policy.Locking.Policy.apply syntax in
  print_endline (Locking.Render.figure locked);
  let g = Locking.Geometry.analyse locked in
  Printf.printf "blocks connected: %b\n" (Locking.Geometry.blocks_connected g);
  match Locking.Geometry.common_point g with
  | Some (x, y) -> Printf.printf "common point: (%d,%d)\n" x y
  | None -> ()

let schedule_cmd spec arrivals_spec sched_name =
  let syntax = parse_syntax spec in
  let fmt = Syntax.format syntax in
  let arrivals = parse_interleaving arrivals_spec in
  let mk = scheduler_of_name syntax sched_name in
  let s = Sched.Driver.run (mk ()) ~fmt ~arrivals in
  Format.printf "output:    %a@." Schedule.pp s.Sched.Driver.output;
  Printf.printf
    "delays %d, restarts %d, deadlocks %d, waiting %d, zero-delay %b\n"
    s.Sched.Driver.delays s.Sched.Driver.restarts s.Sched.Driver.deadlocks
    s.Sched.Driver.waiting (Sched.Driver.zero_delay s)

(* The atomic-commitment verification pass behind [ccopt verify
   --twopc] and the @check smoke: the exhaustive single-fault
   micro-universes at 1-3 participants, then a fixed-seed fault-matrix
   grid (crash rate x slow rate) through the commit service. Exit 1 on
   any AC1-AC5 violation, with the witness on stderr. *)
let verify_twopc () =
  let cfg = Sched.Twopc.default in
  let bad = ref 0 in
  let rounds_total = ref 0 in
  List.iter
    (fun n_parts ->
      let rounds = Sched.Twopc.universe cfg ~n_parts ~seed:1 in
      rounds_total := !rounds_total + List.length rounds;
      List.iter
        (fun (_, r, vs) ->
          if vs <> [] then begin
            incr bad;
            Printf.eprintf "ccopt verify: 2PC violation (%d participants):\n%s\n"
              n_parts (Sched.Twopc.witness r vs)
          end)
        rounds)
    [ 1; 2; 3 ];
  let grid_rounds = ref 0 in
  List.iter
    (fun crash_rate ->
      List.iter
        (fun slow_rate ->
          let svc =
            Sched.Twopc.service ~crash_rate ~slow_rate ~seed:11 ~shards:3 ()
          in
          for tx = 0 to 19 do
            ignore (Sched.Twopc.commit svc ~tx ~shards:[ 0; 1; 2 ])
          done;
          let t = Sched.Twopc.totals svc in
          grid_rounds := !grid_rounds + t.Sched.Twopc.rounds;
          if t.Sched.Twopc.rounds <> t.Sched.Twopc.committed + t.Sched.Twopc.aborted
          then begin
            incr bad;
            Printf.eprintf
              "ccopt verify: 2PC service accounting broken at rates %g/%g\n"
              crash_rate slow_rate
          end)
        [ 0.; 0.2; 0.5 ])
    [ 0.; 0.2; 0.5 ];
  Printf.printf
    "2PC AC1-AC5: %d single-fault rounds exhaustively checked, %d \
     fault-matrix service rounds, %d violations\n"
    !rounds_total !grid_rounds !bad;
  if !bad > 0 then exit 1

let verify k twopc =
  if twopc then verify_twopc ()
  else begin
    let r2 =
      Optimality.Verify.theorem2_report ~k ~fmt:[| 2; 1 |] ~vars:[ "x" ]
    in
    Format.printf "Theorem 2 (format (2,1), Z%d):@.%a@.@." k
      Optimality.Verify.pp_report r2;
    let syntax = parse_syntax "xy,yx" in
    let r3 = Optimality.Verify.theorem3_report ~k syntax in
    Format.printf "Theorem 3 (syntax xy,yx, Z%d):@.%a@." k
      Optimality.Verify.pp_report r3
  end

let read_file file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The well-formedness gate of every emitted report: the printed text
   must parse back. *)
let json_text what v =
  let s = Obs.Json.to_string v in
  match Obs.Json.parse s with
  | Ok _ -> s
  | Error e ->
    Printf.eprintf "ccopt: internal error: %s emitted malformed JSON: %s\n"
      what (Obs.Json.error_to_string e);
    exit 1

let write_out out body =
  match out with
  | None -> print_string body
  | Some file ->
    let oc = open_out file in
    output_string oc body;
    close_out oc;
    Printf.printf "wrote %s\n" file

(* A bench report, to stdout or to [--out FILE]. Regenerating a JSON
   file in place keeps the top-level members this run does not emit
   (opt-in sections, other tools' keys); a FILE that does not parse is
   named with the error position on stderr, then replaced. *)
let write_report ~what ~json out v text =
  if not json then write_out out text
  else
    let v =
      match out with
      | None -> v
      | Some file -> (
        match read_file file with
        | exception Sys_error _ -> v
        | old -> (
          match Obs.Json.parse old with
          | Ok existing -> Obs.Json.merge ~existing v
          | Error e ->
            Printf.eprintf "%s:%s\n" file (Obs.Json.error_to_string e);
            v))
    in
    write_out out (json_text what v ^ "\n")

let analyze spec sched_spec policy_name certify_name k json =
  let syntax = parse_syntax spec in
  let req =
    Analysis.Analyze.request
      ?schedule:(Option.map parse_interleaving sched_spec)
      ?policy:policy_name ?certify:certify_name ~k syntax
  in
  let report = Analysis.Analyze.run req in
  if json then
    print_endline (json_text "analyze" (Analysis.Report.to_json report))
  else Format.printf "%a@." Analysis.Report.pp report;
  (* linter convention: error diagnostics fail the invocation *)
  if Analysis.Report.errors report > 0 then exit 1

let measure spec samples =
  let syntax = parse_syntax spec in
  let rows =
    Sim.Measure.compare_schedulers
      (Sim.Measure.standard_suite syntax)
      ~fmt:(Syntax.format syntax) ~samples ~seed:1
  in
  Format.printf "%a" Sim.Measure.pp_rows rows

let parse_sizes spec =
  List.map
    (fun cell ->
      match String.split_on_char 'x' cell with
      | [ n; m ] -> (
        match (int_of_string_opt n, int_of_string_opt m) with
        | Some n, Some m when n > 0 && m > 0 -> (n, m)
        | _ -> invalid_arg ("bad size " ^ cell ^ " in --sizes"))
      | _ -> invalid_arg ("bad size " ^ cell ^ " in --sizes (want NxM)"))
    (String.split_on_char ',' spec)

let parse_ints spec =
  List.filter_map
    (fun s ->
      if s = "" then None
      else
        match int_of_string_opt s with
        | Some k when k > 0 -> Some k
        | _ -> invalid_arg ("bad shard count " ^ s ^ " in --shards"))
    (String.split_on_char ',' spec)

let bench sizes mixes n_vars streams min_time seed smoke json out shards
    shard_sizes mv_sizes mv_samples sem_sizes sem_samples parallel domains
    twopc =
  (* the sections are opt-in (--parallel, --twopc); --domains picks the
     parallel sweep, defaulting to the base configuration's (smoke
     keeps its tiny one) *)
  let par_domains_for (base : Sim.Sched_bench.spec) =
    if not parallel then []
    else
      match domains with
      | "" -> base.Sim.Sched_bench.par_domains
      | spec -> parse_ints spec
  in
  let twopc_rates_for (base : Sim.Sched_bench.spec) =
    if twopc then base.Sim.Sched_bench.twopc_fault_rates else []
  in
  let par_domains = par_domains_for Sim.Sched_bench.default in
  let spec =
    if smoke then
      {
        Sim.Sched_bench.smoke with
        par_domains = par_domains_for Sim.Sched_bench.smoke;
        twopc_fault_rates = twopc_rates_for Sim.Sched_bench.smoke;
      }
    else
      {
        Sim.Sched_bench.sizes = parse_sizes sizes;
        mixes = String.split_on_char ',' mixes;
        n_vars;
        streams;
        min_time;
        seed;
        shard_ks = parse_ints shards;
        shard_sizes = parse_sizes shard_sizes;
        shard_mixes = Sim.Sched_bench.default.Sim.Sched_bench.shard_mixes;
        mv_sizes = (if mv_sizes = "" then [] else parse_sizes mv_sizes);
        mv_mixes = Sim.Sched_bench.default.Sim.Sched_bench.mv_mixes;
        mv_samples;
        sem_sizes = (if sem_sizes = "" then [] else parse_sizes sem_sizes);
        sem_mixes = Sim.Sched_bench.default.Sim.Sched_bench.sem_mixes;
        sem_samples;
        par_domains;
        par_queues = Sim.Sched_bench.default.Sim.Sched_bench.par_queues;
        par_sizes = Sim.Sched_bench.default.Sim.Sched_bench.par_sizes;
        par_mixes = Sim.Sched_bench.default.Sim.Sched_bench.par_mixes;
        par_streams = Sim.Sched_bench.default.Sim.Sched_bench.par_streams;
        twopc_fault_rates = twopc_rates_for Sim.Sched_bench.default;
        twopc_rounds = Sim.Sched_bench.default.Sim.Sched_bench.twopc_rounds;
        twopc_parts = Sim.Sched_bench.default.Sim.Sched_bench.twopc_parts;
      }
  in
  let rows = Sim.Sched_bench.run spec in
  let sections =
    Sim.Sched_bench.sections
      ~mv:(Sim.Sched_bench.mv_stats spec)
      ~semantic:(Sim.Sched_bench.sem_stats spec)
      ?twopc:(Sim.Sched_bench.twopc_stats spec)
      spec rows
  in
  write_report ~what:"bench" ~json out
    (Sim.Sched_bench.to_json spec sections)
    (Format.asprintf "%a" Sim.Sched_bench.pp sections)

let trace spec sched_names seed capacity samples json out =
  let syntax = parse_syntax spec in
  let only =
    match sched_names with
    | None -> []
    | Some names ->
      List.filter (fun s -> s <> "") (String.split_on_char ',' names)
  in
  (* validate up front: unknown names are a usage error, exit 1 *)
  List.iter (fun name -> ignore (registry_entry name)) only;
  let tspec =
    {
      Sim.Trace_run.label = spec;
      syntax;
      seed;
      capacity;
      samples;
      only;
    }
  in
  let runs = Sim.Trace_run.execute tspec in
  (* the trace is only worth shipping if it is a faithful witness *)
  let bad = ref false in
  List.iter
    (fun r ->
      List.iter
        (fun d ->
          bad := true;
          Printf.eprintf "ccopt trace: %s: %s\n" r.Sim.Trace_run.name d)
        (Sim.Trace_run.mismatches r);
      match Obs.Json.parse (Obs.Json.to_string r.Sim.Trace_run.chrome) with
      | Ok _ -> ()
      | Error e ->
        bad := true;
        Printf.eprintf "ccopt trace: %s: malformed Chrome trace JSON: %s\n"
          r.Sim.Trace_run.name (Obs.Json.error_to_string e))
    runs;
  if !bad then exit 1;
  (match out with
  | None -> ()
  | Some prefix ->
    List.iter
      (fun r ->
        let file = prefix ^ "-" ^ r.Sim.Trace_run.slug ^ ".json" in
        let oc = open_out file in
        output_string oc (Obs.Json.to_string r.Sim.Trace_run.chrome ^ "\n");
        close_out oc;
        Printf.printf "wrote %s\n" file;
        (* the machine-readable twin: an exact event log that [ccopt
           check --trace] can replay *)
        let efile = prefix ^ "-" ^ r.Sim.Trace_run.slug ^ ".events" in
        let oc = open_out efile in
        output_string oc
          (Obs.Event_log.to_string ~dropped:r.Sim.Trace_run.dropped
             r.Sim.Trace_run.events);
        close_out oc;
        Printf.printf "wrote %s\n" efile)
      runs);
  if json then
    print_endline (json_text "trace" (Sim.Trace_run.json_summary tspec runs))
  else Format.printf "%a" Sim.Trace_run.pp_summary runs

let witness_kind = function
  | Analysis.Checker.Cycle _ -> "cycle"
  | Analysis.Checker.Dangling_read _ -> "dangling-read"
  | Analysis.Checker.Ambiguous_write _ -> "ambiguous-write"
  | Analysis.Checker.Internal_misread _ -> "internal-misread"
  | Analysis.Checker.No_order _ -> "no-order"

let check_json ~source hist results =
  let n = Analysis.History.n hist in
  let result r =
    let level = Analysis.Checker.level_name r.Analysis.Checker.level in
    let split = r.Analysis.Checker.split in
    let verdict v rest =
      Obs.Json.(
        Object
          ([
             ("level", String level);
             ("verdict", String v);
             ("split", Bool split);
           ]
          @ rest))
    in
    match r.Analysis.Checker.verdict with
    | Analysis.Checker.Consistent order ->
      verdict "consistent"
        [ ("order", Obs.Json.Array (List.map (fun i -> Obs.Json.Int i) order)) ]
    | Analysis.Checker.Violation w ->
      let nn = if split then 2 * n else n in
      let text =
        Format.asprintf "%a" (Analysis.Checker.pp_witness ~split ~n:nn) w
      in
      verdict "violation"
        [
          ( "witness",
            Obs.Json.(
              Object
                [ ("kind", String (witness_kind w)); ("text", String text) ])
          );
        ]
    | Analysis.Checker.Unknown reason ->
      verdict "unknown" [ ("reason", Obs.Json.String reason) ]
  in
  Obs.Json.(
    Object
      [
        ("schema_version", Int Analysis.Report.schema_version);
        ("source", String source);
        ("label", String (Analysis.History.label hist));
        ("txns", Int n);
        ("events", Int (Analysis.History.n_events hist));
        ("complete", Bool (Analysis.History.complete hist));
        ("results", Array (List.map result results));
      ])

(* The level ladder up to and including a declared level — the default
   [--levels] for a [--scheduler] run: an engine is checked against
   exactly what it guarantees (SI is not serializable, and plain
   [ccopt check --scheduler si] should not fail for it). *)
let levels_upto level =
  let rec go = function
    | [] -> []
    | l :: rest -> if l = level then [ l ] else l :: go rest
  in
  go Analysis.Checker.levels

let check spec sched_spec sched_name seed capacity trace_file levels_spec
    mutate_name budget bench out json =
  let explicit_levels =
    match levels_spec with
    | None -> None
    | Some s ->
      Some
        (List.map
           (fun nm ->
             match Analysis.Checker.level_of_name nm with
             | Some l -> l
             | None ->
               Printf.eprintf "ccopt check: unknown level %s (have: %s)\n" nm
                 (String.concat ", "
                    (List.map Analysis.Checker.level_name
                       Analysis.Checker.levels));
               exit 1)
           (List.filter (fun s -> s <> "") (String.split_on_char ',' s)))
  in
  let levels =
    Option.value ~default:Analysis.Checker.levels explicit_levels
  in
  match bench with
  | Some size ->
    (* throughput mode: a generated serializable history; any verdict
       other than Consistent fails the run *)
    let bspec =
      match size with
      | "smoke" -> Sim.Check_bench.smoke
      | "default" -> Sim.Check_bench.default
      | s -> Sim.Check_bench.parse_dims s Sim.Check_bench.default
    in
    let bspec = { bspec with Sim.Check_bench.seed; levels } in
    let rows = Sim.Check_bench.run bspec in
    write_report ~what:"check" ~json out
      (Sim.Check_bench.to_json bspec rows)
      (Format.asprintf "%a" Sim.Check_bench.pp_rows rows)
  | None ->
  let spec =
    match spec with
    | Some s -> s
    | None ->
      Printf.eprintf "ccopt check: --syntax is required (unless --bench)\n";
      exit 1
  in
  let syntax = parse_syntax spec in
  let fmt = Syntax.format syntax in
  let source, hist, levels =
    match (trace_file, sched_spec) with
    | Some file, _ -> (
      let text =
        try read_file file
        with Sys_error msg ->
          Printf.eprintf "ccopt check: %s\n" msg;
          exit 1
      in
      match Obs.Event_log.parse text with
      | Error msg ->
        Printf.eprintf "ccopt check: %s: %s\n" file msg;
        exit 1
      | Ok (events, dropped) ->
        (* MV-aware: a trace with version events is reconstructed from
           the values the engine served, not by replaying the schedule *)
        ( "trace " ^ file,
          Sim.Check_fuzz.history_of_events ~label:file
            ~complete:(dropped = 0) syntax events,
          levels ))
    | None, Some digits ->
      let h = Schedule.of_interleaving (parse_interleaving digits) in
      if not (Schedule.is_schedule_of fmt h) then begin
        Printf.eprintf "ccopt check: not a schedule of the syntax\n";
        exit 1
      end;
      ( "schedule " ^ digits,
        Analysis.History.of_schedule ~label:(spec ^ " @ " ^ digits) syntax h,
        levels )
    | None, None ->
      let e = registry_entry sched_name in
      let st = Random.State.make [| seed |] in
      let arrivals = Combin.Interleave.random st fmt in
      let ring = Obs.Sink.Ring.create ~capacity in
      let sink = Obs.Sink.Ring.sink ring in
      ignore
        (Sched.Driver.run ~sink
           (e.Sched.Registry.make ~sink syntax)
           ~fmt ~arrivals);
      let label = Printf.sprintf "%s via %s (seed %d)" spec sched_name seed in
      let levels =
        match explicit_levels with
        | Some ls -> ls
        | None -> (
          (* default to the ladder the engine actually guarantees *)
          match Analysis.Checker.level_of_name e.Sched.Registry.level with
          | Some l -> levels_upto l
          | None -> Analysis.Checker.levels)
      in
      ( "scheduler " ^ sched_name,
        Sim.Check_fuzz.history_of_events ~label
          ~complete:(Obs.Sink.Ring.dropped ring = 0)
          syntax
          (Obs.Sink.Ring.events ring),
        levels )
  in
  let hist =
    match mutate_name with
    | None -> hist
    | Some name -> (
      match Analysis.History.mutation_of_name name with
      | None ->
        Printf.eprintf "ccopt check: unknown mutation %s (have: %s)\n" name
          (String.concat ", "
             (List.map Analysis.History.mutation_name
                Analysis.History.mutations));
        exit 1
      | Some m -> (
        let rng = Random.State.make [| seed; 0x6d75 |] in
        match Analysis.History.mutate m rng hist with
        | Some h -> h
        | None ->
          Printf.eprintf "ccopt check: mutation %s has no applicable site\n"
            name;
          exit 1))
  in
  let results = List.map (Analysis.Checker.check ~budget hist) levels in
  let n = Analysis.History.n hist in
  if json then
    print_endline (json_text "check" (check_json ~source hist results))
  else begin
    Printf.printf "history: %s (%d txns, %d events%s)\n"
      (Analysis.History.label hist)
      n
      (Analysis.History.n_events hist)
      (if Analysis.History.complete hist then "" else ", truncated");
    List.iter
      (fun r -> Format.printf "%a@." (Analysis.Checker.pp_result ~n) r)
      results
  end;
  if
    List.exists
      (fun r ->
        match r.Analysis.Checker.verdict with
        | Analysis.Checker.Violation _ -> true
        | _ -> false)
      results
  then exit 1

(* ---------- cmdliner wiring ---------- *)

open Cmdliner

let syntax_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "syntax"; "s" ] ~docv:"SPEC"
        ~doc:"Transactions as comma-separated variable strings (xy,yx).")

let classify_cmd =
  let probes =
    Arg.(value & opt int 12 & info [ "probes" ] ~doc:"Probe states for WSR/C.")
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"fixpoint-set hierarchy of a system")
    Term.(const classify $ syntax_arg $ probes)

let herbrand_cmd =
  let sched =
    Arg.(
      required
      & opt (some string) None
      & info [ "schedule" ] ~docv:"DIGITS"
          ~doc:"Interleaving as transaction indices, e.g. 010.")
  in
  Cmd.v
    (Cmd.info "herbrand" ~doc:"symbolic execution and serializability")
    Term.(const herbrand $ syntax_arg $ sched)

let geometry_cmd =
  let policy =
    Arg.(
      value & opt string "2pl"
      & info [ "policy" ] ~doc:"2pl, 2pl', preclaim or mutex.")
  in
  Cmd.v
    (Cmd.info "geometry" ~doc:"progress-space figure for two transactions")
    Term.(const geometry $ syntax_arg $ policy)

let schedule_run_cmd =
  let arrivals =
    Arg.(
      required
      & opt (some string) None
      & info [ "arrivals" ] ~docv:"DIGITS" ~doc:"Request stream, e.g. 0101.")
  in
  let sched =
    Arg.(
      value & opt string "sgt"
      & info [ "scheduler" ]
          ~doc:
            ("One of " ^ String.concat ", " Sched.Registry.names ^ "."))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"drive an online scheduler over a stream")
    Term.(const schedule_cmd $ syntax_arg $ arrivals $ sched)

let analyze_cmd =
  let sched =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"DIGITS"
          ~doc:"Schedule to run the anomaly detector on, e.g. 0101.")
  in
  let policy =
    Arg.(
      value
      & opt (some string) None
      & info [ "policy" ]
          ~doc:"Locking policy to lint: 2pl, 2pl', preclaim or mutex.")
  in
  let certify =
    (* the certifier resolves names through the registry; derive the doc
       from it so help text cannot drift from the name table *)
    Arg.(
      value
      & opt (some string) None
      & info [ "certify" ]
          ~doc:
            ("Scheduler to certify against Theorem 1: one of "
            ^ String.concat ", " Sched.Registry.names
            ^ "."))
  in
  let k =
    Arg.(
      value & opt int 2
      & info [ "k" ] ~doc:"Micro-universe domain size for --certify.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"static anomaly detection, lock-policy linting, scheduler \
             certification")
    Term.(
      const analyze $ syntax_arg $ sched $ policy $ certify $ k $ json)

let verify_cmd =
  let k = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Domain size Z_k.") in
  let twopc =
    Arg.(
      value & flag
      & info [ "twopc" ]
          ~doc:"Verify the distributed-commit layer instead: AC1-AC5 over \
                the exhaustive single-fault micro-universes and a \
                fixed-seed crash/slow-link fault matrix; exit 1 on any \
                violation, with a replayable witness on stderr.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"exhaustive micro-universe checks (KP theorems; --twopc for \
             atomic commitment)")
    Term.(const verify $ k $ twopc)

let measure_cmd =
  let samples =
    Arg.(value & opt int 500 & info [ "samples" ] ~doc:"Random histories.")
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:
         ("scheduler delay comparison over the standard suite ("
         ^ String.concat ", "
             (List.map
                (fun e -> e.Sched.Registry.slug)
                Sched.Registry.standard)
         ^ ")"))
    Term.(const measure $ syntax_arg $ samples)

let bench_cmd =
  let d = Sim.Sched_bench.default in
  let sizes =
    let default =
      String.concat ","
        (List.map (fun (n, m) -> Printf.sprintf "%dx%d" n m) d.Sim.Sched_bench.sizes)
    in
    Arg.(
      value & opt string default
      & info [ "sizes" ] ~docv:"NxM,.."
          ~doc:"Workload sizes: transactions x steps, comma-separated.")
  in
  let mixes =
    Arg.(
      value
      & opt string (String.concat "," d.Sim.Sched_bench.mixes)
      & info [ "mixes" ] ~doc:"Variable mixes: uniform, hot and/or skewed.")
  in
  let n_vars =
    Arg.(
      value & opt int d.Sim.Sched_bench.n_vars
      & info [ "vars" ] ~doc:"Size of the variable pool.")
  in
  let streams =
    Arg.(
      value & opt int d.Sim.Sched_bench.streams
      & info [ "streams" ] ~doc:"Arrival streams per cell.")
  in
  let min_time =
    Arg.(
      value & opt float d.Sim.Sched_bench.min_time
      & info [ "min-time" ] ~doc:"Per-cell time budget in seconds.")
  in
  let seed =
    Arg.(value & opt int d.Sim.Sched_bench.seed & info [ "seed" ] ~doc:"RNG seed.")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Tiny single-pass configuration (overrides the other knobs).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit BENCH_sched.json schema.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the report to a file.")
  in
  let shards =
    let default =
      String.concat "," (List.map string_of_int d.Sim.Sched_bench.shard_ks)
    in
    Arg.(
      value & opt string default
      & info [ "shards" ] ~docv:"K,.."
          ~doc:"Shard counts for the sharded-engine section (sharded vs \
                monolithic SGT); empty disables the section.")
  in
  let shard_sizes =
    let default =
      String.concat ","
        (List.map
           (fun (n, m) -> Printf.sprintf "%dx%d" n m)
           d.Sim.Sched_bench.shard_sizes)
    in
    Arg.(
      value & opt string default
      & info [ "shard-sizes" ] ~docv:"NxM,.."
          ~doc:"Workload sizes of the sharded-engine section.")
  in
  let mv_sizes =
    let default =
      String.concat ","
        (List.map
           (fun (n, m) -> Printf.sprintf "%dx%d" n m)
           d.Sim.Sched_bench.mv_sizes)
    in
    Arg.(
      value & opt string default
      & info [ "mv-sizes" ] ~docv:"NxM,.."
          ~doc:"Workload sizes of the multi-version section (SGT vs \
                MVCC/SI/SSI over typed read/update mixes); empty disables \
                the section.")
  in
  let mv_samples =
    Arg.(
      value
      & opt int d.Sim.Sched_bench.mv_samples
      & info [ "mv-samples" ]
          ~doc:"Monte-Carlo samples per |P|/|H| breadth estimate in the \
                multi-version admission table.")
  in
  let sem_sizes =
    let default =
      String.concat ","
        (List.map
           (fun (n, m) -> Printf.sprintf "%dx%d" n m)
           d.Sim.Sched_bench.sem_sizes)
    in
    Arg.(
      value & opt string default
      & info [ "sem-sizes" ] ~docv:"NxM,.."
          ~doc:"Workload sizes of the commutativity section (rw-SGT vs the \
                semantic engine over typed counter mixes); empty disables \
                the section.")
  in
  let sem_samples =
    Arg.(
      value
      & opt int d.Sim.Sched_bench.sem_samples
      & info [ "sem-samples" ]
          ~doc:"Monte-Carlo samples per |P|/|H| breadth estimate in the \
                commutativity admission table.")
  in
  let parallel =
    Arg.(
      value & flag
      & info [ "parallel" ]
          ~doc:"Also time the domain-parallel execution engine \
                (Sched.Parallel) — wall-clock req/s per (domain count, \
                channel build), with a speedup map vs 1 domain.")
  in
  let domains =
    Arg.(
      value & opt string ""
      & info [ "domains" ] ~docv:"D,.."
          ~doc:"Domain counts for the --parallel sweep (include 1: it is \
                the speedup baseline). Defaults to the configuration's \
                sweep.")
  in
  let twopc =
    Arg.(
      value & flag
      & info [ "twopc" ]
          ~doc:"Also run the distributed-commit section (Sched.Twopc): \
                commit latency, abort rate and in-doubt blocking window \
                per fault rate, plus the measured coordinator-crash \
                blocking window.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"scheduler micro-benchmark (requests/sec, incl. SGT vs SGT-ref, \
             sharded vs monolithic SGT, the multi-version admission section, \
             the --parallel wall-clock engine sweep and the --twopc \
             distributed-commit section)")
    Term.(
      const bench $ sizes $ mixes $ n_vars $ streams $ min_time $ seed $ smoke
      $ json $ out $ shards $ shard_sizes $ mv_sizes $ mv_samples $ sem_sizes
      $ sem_samples $ parallel $ domains $ twopc)

let trace_cmd =
  let sched =
    Arg.(
      value
      & opt (some string) None
      & info [ "scheduler" ] ~docv:"NAMES"
          ~doc:
            ("Comma-separated registered schedulers ("
            ^ String.concat ", " Sched.Registry.names
            ^ "); default: the standard suite."))
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Arrival-stream seed.")
  in
  let capacity =
    Arg.(
      value
      & opt int Sim.Trace_run.default_capacity
      & info [ "capacity" ] ~doc:"Ring-buffer capacity per scheduler.")
  in
  let samples =
    Arg.(
      value & opt int 200
      & info [ "samples" ]
          ~doc:"Monte-Carlo samples for the zero-delay fraction.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the summary as JSON.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:"Write one Chrome trace per scheduler to \
                PREFIX-<scheduler>.json (load in about://tracing or \
                Perfetto).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"record a request-lifecycle trace and the Section 6 time \
             decomposition")
    Term.(
      const trace $ syntax_arg $ sched $ seed $ capacity $ samples $ json
      $ out)

let check_cmd =
  let syntax =
    (* optional here: --bench needs no syntax *)
    Arg.(
      value
      & opt (some string) None
      & info [ "syntax"; "s" ] ~docv:"SPEC"
          ~doc:"Transactions as comma-separated variable strings (xy,yx).")
  in
  let sched_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"DIGITS"
          ~doc:"Check this interleaving of the syntax directly.")
  in
  let sched =
    Arg.(
      value & opt string "sgt"
      & info [ "scheduler" ]
          ~doc:
            ("Scheduler to re-run and check (one of "
            ^ String.concat ", " Sched.Registry.names
            ^ "); ignored when --schedule or --trace is given."))
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~doc:"Arrival-stream (and --mutate site) seed.")
  in
  let capacity =
    Arg.(
      value
      & opt int Sim.Trace_run.default_capacity
      & info [ "capacity" ] ~doc:"Ring-buffer capacity for --scheduler runs.")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Check a recorded event log (ccopt trace --out writes \
                PREFIX-<scheduler>.events).")
  in
  let levels =
    Arg.(
      value
      & opt (some string) None
      & info [ "levels" ] ~docv:"L,.."
          ~doc:
            ("Comma-separated subset of "
            ^ String.concat ", "
                (List.map Analysis.Checker.level_name Analysis.Checker.levels)
            ^ " (default: all, except --scheduler runs, which default to \
               the ladder up to the engine's declared level)."))
  in
  let mutate =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"KIND"
          ~doc:
            ("Corrupt the history first ("
            ^ String.concat ", "
                (List.map Analysis.History.mutation_name
                   Analysis.History.mutations)
            ^ ") — the checker must then reject it."))
  in
  let budget =
    Arg.(
      value & opt int 2_000_000
      & info [ "budget" ]
          ~doc:"Search-state budget for the SER/SI decision; exceeding it \
                yields an unknown verdict, never a guess.")
  in
  let bench =
    Arg.(
      value
      & opt (some string) None
      & info [ "bench" ] ~docv:"SIZE"
          ~doc:"Throughput mode: check a generated serializable history and \
                report events/sec per level. SIZE is smoke, default (1M \
                events — the committed BENCH_check.json configuration) or \
                NxMxSxV (transactions x steps x sessions x variables).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the --bench report to a file (with --json, foreign \
                top-level keys of an existing file are preserved).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdicts as JSON.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"black-box history consistency checker: decide rc / ra / causal \
             / si / ser over a schedule, a scheduler run or a recorded \
             trace (exit 1 on violation)")
    Term.(
      const check $ syntax $ sched_spec $ sched $ seed $ capacity
      $ trace_file $ levels $ mutate $ budget $ bench $ out $ json)

let () =
  let doc = "concurrency-control optimality toolbox (Kung-Papadimitriou 1979)" in
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group (Cmd.info "ccopt" ~doc)
            [
              classify_cmd; herbrand_cmd; geometry_cmd; analyze_cmd;
              schedule_run_cmd; verify_cmd; measure_cmd; bench_cmd;
              trace_cmd; check_cmd;
            ])
     with
     | Invalid_argument msg ->
       Printf.eprintf "ccopt: %s\n" msg;
       2
     | Sched.Driver.Stall msg ->
       Printf.eprintf "ccopt: %s\n" msg;
       1)
