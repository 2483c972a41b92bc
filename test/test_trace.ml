(* The trace-vs-stats differential suite.

   A run's event trace is a complete black-box witness: folding it with
   [Obs.Fold.counters] must reproduce the driver's reported statistics
   {e exactly} — grants, delays, restarts, deadlocks, waiting and the
   zero-delay flag — for every scheduler in the standard suite, on the
   fixed corpus and on the seeded sweep mirroring [test_sgt_diff]. The
   replayed §6 spans must tile each transaction's timeline, the Chrome
   export must be well-formed (valid JSON, per-track monotone
   timestamps, balanced B/E pairs), and the whole pipeline must be a
   deterministic function of the seed. *)

open Util
open Core

(* ---------- driver traces vs driver stats ---------- *)

let check_faithful ~label syntax arrivals =
  let fmt = Syntax.format syntax in
  let n = Array.length fmt in
  let c = Obs.Sink.Memory.create () in
  let sink = Obs.Sink.Memory.sink c in
  List.iter
    (fun (name, mk) ->
      Obs.Sink.Memory.clear c;
      let s = Sched.Driver.run ~sink (mk ()) ~fmt ~arrivals in
      let events = Obs.Sink.Memory.events c in
      let f = Obs.Fold.counters events in
      let tag what = Printf.sprintf "%s/%s %s" label name what in
      check_int (tag "grants") s.Sched.Driver.grants f.Obs.Fold.grants;
      check_int (tag "delays") s.Sched.Driver.delays f.Obs.Fold.delays;
      check_int (tag "restarts") s.Sched.Driver.restarts f.Obs.Fold.restarts;
      check_int (tag "deadlocks") s.Sched.Driver.deadlocks
        f.Obs.Fold.deadlocks;
      check_int (tag "waiting") s.Sched.Driver.waiting f.Obs.Fold.waiting;
      check_int (tag "commits") n f.Obs.Fold.commits;
      check_true (tag "zero-delay flag")
        (Obs.Fold.zero_delay f = Sched.Driver.zero_delay s);
      (* the §6 spans replayed from the same trace tile the timeline *)
      let sp = Obs.Fold.spans ~n events in
      for i = 0 to n - 1 do
        let b = Obs.Span.breakdown sp i in
        check_true (tag "span invariant")
          (b.Obs.Span.scheduling +. b.Obs.Span.waiting
           +. b.Obs.Span.execution
          = b.Obs.Span.elapsed)
      done;
      (* grant-wait observations equal the waiting stat when summed *)
      check_int (tag "wait histogram total") s.Sched.Driver.waiting
        (Obs.Hist.total (Obs.Fold.wait_histogram events)))
    (Sim.Measure.standard_suite ~sink syntax)

let corpus =
  [
    Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ];
    Syntax.of_lists [ [ "x"; "y"; "z" ]; [ "z"; "x" ]; [ "y"; "z" ] ];
    Syntax.of_lists [ [ "x"; "x" ]; [ "x"; "x" ]; [ "x"; "x" ] ];
    (let st = Random.State.make [| 7 |] in
     Sim.Workload.uniform st ~n:4 ~m:4 ~n_vars:3);
    (let st = Random.State.make [| 8 |] in
     Sim.Workload.uniform st ~n:6 ~m:5 ~n_vars:4);
  ]

let round_robin fmt =
  let n = Array.length fmt in
  let acc = ref [] in
  let maxm = Array.fold_left max 0 fmt in
  for j = 0 to maxm - 1 do
    for i = 0 to n - 1 do
      if j < fmt.(i) then acc := i :: !acc
    done
  done;
  Array.of_list (List.rev !acc)

let test_corpus () =
  List.iteri
    (fun k syntax ->
      let fmt = Syntax.format syntax in
      let label = Printf.sprintf "corpus%d" k in
      check_faithful ~label syntax (round_robin fmt);
      let st = rng (100 + k) in
      for _ = 1 to 5 do
        check_faithful ~label syntax (Combin.Interleave.random st fmt)
      done)
    corpus

let test_sweep () =
  (* the [test_sgt_diff] sweep generator, replayed for trace fidelity:
     every scheduler of the suite, 100 seeded workloads *)
  for seed = 0 to 99 do
    let st = Random.State.make [| seed |] in
    let n = 2 + Random.State.int st 6 in
    let m = 2 + Random.State.int st 5 in
    let n_vars = 2 + Random.State.int st 4 in
    let syntax = Sim.Workload.uniform st ~n ~m ~n_vars in
    let arrivals = Combin.Interleave.random st (Syntax.format syntax) in
    check_faithful ~label:(Printf.sprintf "sweep%d" seed) syntax arrivals
  done

(* ---------- DES traces vs DES stats ---------- *)

let des_params =
  { Sim.Des.arrival_rate = 1e6; exec_time = 0.001; sched_time = 1.; seed = 1 }

let test_des_fold () =
  List.iter
    (fun syntax ->
      let n = Syntax.n_transactions syntax in
      List.iter
        (fun (name, mk) ->
          let c = Obs.Sink.Memory.create () in
          let d =
            Sim.Des.run
              ~sink:(Obs.Sink.Memory.sink c)
              des_params ~syntax ~scheduler:mk
          in
          let f = Obs.Fold.counters (Obs.Sink.Memory.events c) in
          let tag what = Printf.sprintf "des/%s %s" name what in
          check_int (tag "restarts") d.Sim.Des.restarts f.Obs.Fold.restarts;
          check_int (tag "deadlocks") d.Sim.Des.deadlocks
            f.Obs.Fold.deadlocks;
          check_int (tag "commits") n f.Obs.Fold.commits)
        [
          ("sgt", fun () -> Sched.Sgt.create ~syntax ());
          ("2pl", fun () -> Sched.Tpl_sched.create_2pl ~syntax ());
          ("to", fun () -> Sched.Timestamp.create ~syntax ());
        ])
    corpus

(* ---------- determinism ---------- *)

let spec ?(label = "xy,yx") ?(seed = 42) ?(only = []) () =
  {
    Sim.Trace_run.label;
    syntax = Analysis.Analyze.parse_syntax label;
    seed;
    capacity = Sim.Trace_run.default_capacity;
    samples = 200;
    only;
  }

let test_determinism () =
  (* same seed, same everything: arrivals, workloads, traces, summaries *)
  let fmt = [| 3; 2; 4 |] in
  let a1 = Combin.Interleave.random (Random.State.make [| 5 |]) fmt in
  let a2 = Combin.Interleave.random (Random.State.make [| 5 |]) fmt in
  check_true "arrivals reproducible" (a1 = a2);
  let w st = Sim.Workload.uniform st ~n:5 ~m:4 ~n_vars:3 in
  let s1 = w (Random.State.make [| 9 |]) in
  let s2 = w (Random.State.make [| 9 |]) in
  check_true "workload reproducible"
    (Format.asprintf "%a" Syntax.pp s1 = Format.asprintf "%a" Syntax.pp s2);
  let sp = spec ~label:"xyz,zx,yz" ~seed:7 () in
  let r1 = Sim.Trace_run.execute sp in
  let r2 = Sim.Trace_run.execute sp in
  List.iter2
    (fun a b ->
      check_true
        ("chrome identical: " ^ a.Sim.Trace_run.name)
        (a.Sim.Trace_run.chrome = b.Sim.Trace_run.chrome))
    r1 r2;
  check_true "json summary identical"
    (Sim.Trace_run.json_summary sp r1 = Sim.Trace_run.json_summary sp r2);
  check_true "text summary byte-identical"
    (Format.asprintf "%a" Sim.Trace_run.pp_summary r1
    = Format.asprintf "%a" Sim.Trace_run.pp_summary r2);
  (* the summary prints as JSON that parses back and opens with the
     version stamp *)
  let json = Sim.Trace_run.json_summary sp r1 in
  check_true "json summary well-formed" (json_round_trips json);
  check_true "json summary carries schema_version first"
    (match json with
    | Obs.Json.Object (("schema_version", v) :: _) ->
      v = Obs.Json.Int Sim.Trace_run.schema_version
    | _ -> false)

(* ---------- pipeline end-to-end: mismatches, slugs, Chrome shape ---------- *)

let test_pipeline_faithful () =
  List.iter
    (fun label ->
      let runs = Sim.Trace_run.execute (spec ~label ()) in
      List.iter
        (fun r ->
          check_true
            (label ^ "/" ^ r.Sim.Trace_run.name ^ " trace matches stats")
            (Sim.Trace_run.mismatches r = []);
          check_int
            (label ^ "/" ^ r.Sim.Trace_run.name ^ " complete trace")
            0 r.Sim.Trace_run.dropped)
        runs)
    [ "xy,yx"; "xxy,yx,xyy"; "xyz,zx,yz" ]

let test_truncated_ring () =
  (* a ring too small for the run: the fold must survive a trace that
     starts mid-stream (grants without submissions, commits without
     lifecycles), the differential is declared uncheckable, and the
     Chrome export stays well-formed *)
  let sp = { (spec ~label:"xxy,yx,xyy" ()) with Sim.Trace_run.capacity = 4 } in
  let runs = Sim.Trace_run.execute sp in
  List.iter
    (fun r ->
      check_true (r.Sim.Trace_run.name ^ " ring truncated")
        (r.Sim.Trace_run.dropped > 0);
      check_int
        (r.Sim.Trace_run.name ^ " ring holds capacity")
        4
        (List.length r.Sim.Trace_run.events);
      check_true (r.Sim.Trace_run.name ^ " truncated not checkable")
        (Sim.Trace_run.mismatches r = []);
      check_true (r.Sim.Trace_run.name ^ " truncated chrome valid")
        (json_round_trips r.Sim.Trace_run.chrome))
    runs;
  ignore (Sim.Trace_run.json_summary sp runs);
  ignore (Format.asprintf "%a" Sim.Trace_run.pp_summary runs)

let test_slugs () =
  let runs = Sim.Trace_run.execute (spec ()) in
  check_true "suite slugs"
    (List.map (fun r -> r.Sim.Trace_run.slug) runs
    = [
        "serial"; "2pl"; "2pl-prime"; "preclaim"; "sgt"; "to"; "sharded";
        "mvcc"; "si"; "ssi"; "semantic";
      ]);
  (* scheduler selection accepts slugs and is case-insensitive *)
  let picked = Sim.Trace_run.execute (spec ~only:[ "SGT"; "2pl-prime" ] ()) in
  check_true "selection by name and slug"
    (List.map (fun r -> r.Sim.Trace_run.name) picked = [ "SGT"; "2PL'" ]);
  check_true "unknown scheduler rejected"
    (try
       ignore (Sim.Trace_run.execute (spec ~only:[ "nope" ] ()));
       false
     with Invalid_argument _ -> true)

let test_chrome_well_formed () =
  List.iter
    (fun label ->
      List.iter
        (fun r ->
          let name = label ^ "/" ^ r.Sim.Trace_run.name in
          check_true (name ^ " chrome is valid JSON")
            (json_round_trips r.Sim.Trace_run.chrome);
          let entries = Obs.Trace_export.entries r.Sim.Trace_run.events in
          (* timestamps non-decreasing per track, B/E balanced per track *)
          let last : (int, float) Hashtbl.t = Hashtbl.create 8 in
          let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
          List.iter
            (fun (e : Obs.Trace_export.entry) ->
              if e.Obs.Trace_export.ph <> 'M' then begin
                (match Hashtbl.find_opt last e.Obs.Trace_export.tid with
                | Some prev ->
                  check_true
                    (name ^ " per-track monotone ts")
                    (e.Obs.Trace_export.ts >= prev)
                | None -> ());
                Hashtbl.replace last e.Obs.Trace_export.tid
                  e.Obs.Trace_export.ts;
                let stack =
                  Option.value ~default:[]
                    (Hashtbl.find_opt stacks e.Obs.Trace_export.tid)
                in
                match e.Obs.Trace_export.ph with
                | 'B' ->
                  Hashtbl.replace stacks e.Obs.Trace_export.tid
                    (e.Obs.Trace_export.name :: stack)
                | 'E' -> (
                  match stack with
                  | top :: rest ->
                    check_true (name ^ " E matches innermost B")
                      (top = e.Obs.Trace_export.name);
                    Hashtbl.replace stacks e.Obs.Trace_export.tid rest
                  | [] -> check_true (name ^ " E without B") false)
                | _ -> ()
              end)
            entries;
          Hashtbl.iter
            (fun _ stack -> check_true (name ^ " all B closed") (stack = []))
            stacks)
        (Sim.Trace_run.execute (spec ~label ())))
    [ "xy,yx"; "xyz,zx,yz" ]

(* ---------- golden summary ---------- *)

let test_golden_summary () =
  (* the exact table [ccopt trace --syntax xy,yx --seed 42] prints; the
     expectation lives in trace_summary.expected next to this file *)
  let runs = Sim.Trace_run.execute (spec ()) in
  let got = Format.asprintf "%a" Sim.Trace_run.pp_summary runs in
  let path =
    (* dune runtest runs inside test/; dune exec from the root *)
    if Sys.file_exists "trace_summary.expected" then "trace_summary.expected"
    else "test/trace_summary.expected"
  in
  let ic = open_in path in
  let len = in_channel_length ic in
  let want = really_input_string ic len in
  close_in ic;
  Alcotest.(check string) "golden §6 summary" want got

let suite =
  [
    Alcotest.test_case "fold = stats on corpus" `Quick test_corpus;
    Alcotest.test_case "fold = stats on 100-seed sweep" `Slow test_sweep;
    Alcotest.test_case "fold = DES stats on corpus" `Quick test_des_fold;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "pipeline traces match stats" `Quick
      test_pipeline_faithful;
    Alcotest.test_case "truncated ring survives folds" `Quick
      test_truncated_ring;
    Alcotest.test_case "slugs and scheduler selection" `Quick test_slugs;
    Alcotest.test_case "chrome export well-formed" `Quick
      test_chrome_well_formed;
    Alcotest.test_case "golden summary table" `Quick test_golden_summary;
  ]
