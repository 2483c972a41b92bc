(* Tests for the workload generators, the performance measurement and
   the Section 6 discrete-event simulation. *)

open Util
open Core

let test_var_pool () =
  Alcotest.(check (list string)) "pool" [ "v0"; "v1"; "v2" ] (Sim.Workload.var_pool 3)

let test_uniform () =
  let st = rng 1 in
  let s = Sim.Workload.uniform st ~n:4 ~m:3 ~n_vars:2 in
  Alcotest.(check (array int)) "format" [| 3; 3; 3; 3 |] (Syntax.format s);
  List.iter
    (fun v -> check_true "var from pool" (List.mem v [ "v0"; "v1" ]))
    (Syntax.vars s)

let test_hotspot_extreme () =
  let st = rng 2 in
  let s = Sim.Workload.hotspot st ~n:3 ~m:2 ~n_vars:4 ~theta:1.0 in
  Alcotest.(check (list string)) "all on v0" [ "v0" ] (Syntax.vars s)

(* Regression: with a single variable the skewed generators used to ask
   [Random.State.int] for a draw over an empty cold pool and raised
   [Invalid_argument]; now everything lands on the hot variable. *)
let test_single_variable_generators () =
  let s = Sim.Workload.hotspot (rng 3) ~n:4 ~m:3 ~n_vars:1 ~theta:0.5 in
  Alcotest.(check (list string)) "hotspot all on v0" [ "v0" ] (Syntax.vars s);
  let s = Sim.Workload.mixed (rng 4) ~n:4 ~m:3 ~n_vars:1 ~read_frac:0.5 ~theta:0.5 in
  Alcotest.(check (list string)) "mixed all on v0" [ "v0" ] (Syntax.vars s);
  (* draws stay reproducible: same seed, same syntax *)
  let again = Sim.Workload.hotspot (rng 3) ~n:4 ~m:3 ~n_vars:1 ~theta:0.5 in
  check_true "deterministic at fixed seed"
    (Syntax.format again
     = Syntax.format (Sim.Workload.hotspot (rng 3) ~n:4 ~m:3 ~n_vars:1 ~theta:0.5))

let test_disjoint () =
  let s = Sim.Workload.disjoint ~n:3 ~m:2 in
  check_int "three vars" 3 (List.length (Syntax.vars s));
  (* every schedule of a disjoint workload is serializable *)
  List.iter
    (fun h -> check_true "serializable" (Conflict.serializable s h))
    (Schedule.all (Syntax.format s))

let test_chain () =
  let vars, pairs = Sim.Workload.chain ~depth:3 in
  Alcotest.(check (list string)) "vars" [ "v0"; "v1"; "v2" ] vars;
  Alcotest.(check (list (pair string string)))
    "pairs" [ ("v1", "v0"); ("v2", "v1") ] pairs;
  Alcotest.(check (list string)) "path"
    [ "v2"; "v1"; "v0" ]
    (Locking.Tree_lock.path_to_root pairs "v2")

let test_counters_system () =
  let s = Sim.Workload.counters (Examples.hot_spot 2 2) in
  let g = Exec.run_transaction s (State.of_ints [ ("x", 0) ]) 0 in
  check_true "two increments" (Expr.Value.equal (State.get g "x") (Expr.Value.Int 2))

let test_transfers_system () =
  let s = Sim.Workload.transfers (Examples.hot_spot 1 2) in
  let g = Exec.run_transaction s (State.of_ints [ ("x", 5) ]) 0 in
  (* +1 then -1 *)
  check_true "net zero" (Expr.Value.equal (State.get g "x") (Expr.Value.Int 5))

let hot22 = Examples.hot_spot 2 2

let test_exact_fixpoint_counts () =
  let fmt = Syntax.format hot22 in
  check_int "serial |P| = 2" 2
    (Sim.Measure.exact_fixpoint_count (fun () -> Sched.Serial_sched.create ~fmt) fmt);
  check_int "SGT |P| = |SR| = 2" 2
    (Sim.Measure.exact_fixpoint_count (fun () -> Sched.Sgt.create ~syntax:hot22 ()) fmt)

let test_sample_row () =
  let fmt = Syntax.format hot22 in
  let row =
    Sim.Measure.sample ~name:"serial"
      (fun () -> Sched.Serial_sched.create ~fmt)
      ~fmt ~samples:300 ~seed:5
  in
  (* exact fraction is 2/6; Monte-Carlo should be in the ballpark *)
  check_true "zero-delay near 1/3"
    (abs_float (row.Sim.Measure.zero_delay_fraction -. (1. /. 3.)) < 0.12);
  check_true "delays nonnegative" (row.Sim.Measure.avg_delays >= 0.);
  (* no samples, no estimate: a named error instead of NaN *)
  List.iter
    (fun samples ->
      check_true
        (Printf.sprintf "zero_delay_fraction rejects %d samples" samples)
        (match
           Sched.Driver.zero_delay_fraction
             (fun () -> Sched.Serial_sched.create ~fmt)
             ~fmt ~samples ~seed:5
         with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ 0; -3 ]

let test_compare_ordering () =
  (* SGT passes at least as much as 2PL, which passes at least as much
     as serial, on a shared-variable workload *)
  let syntax = Syntax.of_lists [ [ "v0"; "v1" ]; [ "v0" ]; [ "v1" ] ] in
  let fmt = Syntax.format syntax in
  let get name rows =
    (List.find (fun r -> r.Sim.Measure.name = name) rows).Sim.Measure.zero_delay_fraction
  in
  let rows =
    Sim.Measure.compare_schedulers
      [
        ("serial", fun () -> Sched.Serial_sched.create ~fmt);
        ("2PL", fun () -> Sched.Tpl_sched.create_2pl ~syntax ());
        ("SGT", fun () -> Sched.Sgt.create ~syntax ());
      ]
      ~fmt ~samples:400 ~seed:11
  in
  check_true "serial <= 2PL" (get "serial" rows <= get "2PL" rows +. 1e-9);
  check_true "2PL <= SGT" (get "2PL" rows <= get "SGT" rows +. 1e-9)

let test_standard_suite_runs () =
  let syntax = Syntax.of_lists [ [ "v0"; "v1" ]; [ "v1"; "v0" ] ] in
  let rows =
    Sim.Measure.compare_schedulers
      (Sim.Measure.standard_suite syntax)
      ~fmt:(Syntax.format syntax) ~samples:50 ~seed:3
  in
  check_int "one row per standard engine"
    (List.length Sched.Registry.standard)
    (List.length rows);
  let table = Format.asprintf "%a" Sim.Measure.pp_rows rows in
  check_true "renders" (String.length table > 0)

let des_params = { Sim.Des.arrival_rate = 1.0; exec_time = 1.0; sched_time = 0.1; seed = 9 }

let test_des_serial () =
  let syntax = Examples.hot_spot 5 2 in
  let r =
    Sim.Des.run des_params ~syntax
      ~scheduler:(fun () -> Sched.Serial_sched.create ~fmt:(Syntax.format syntax))
  in
  check_int "all complete" 5 r.Sim.Des.n_transactions;
  check_true "latency positive" (r.Sim.Des.avg_latency > 0.);
  (* execution = 2 steps x 1.0 (no restarts under serial) *)
  check_true "execution component"
    (abs_float (r.Sim.Des.avg_execution -. 2.0) < 1e-9);
  check_true "throughput positive" (r.Sim.Des.throughput > 0.)

let test_des_decomposition () =
  (* latency = scheduling + waiting + execution (Section 6), up to
     floating error: nothing else can consume time in the model *)
  let syntax = Examples.hot_spot 6 2 in
  List.iter
    (fun (name, mk) ->
      let r = Sim.Des.run des_params ~syntax ~scheduler:mk in
      let lhs = r.Sim.Des.avg_latency in
      let rhs =
        r.Sim.Des.avg_scheduling +. r.Sim.Des.avg_waiting
        +. r.Sim.Des.avg_execution
      in
      if r.Sim.Des.restarts = 0 then
        check_true (name ^ " decomposition") (abs_float (lhs -. rhs) < 1e-6))
    (Sim.Measure.standard_suite syntax)

let test_des_contention_hurts () =
  (* under the serial scheduler, a hot-spot workload cannot have smaller
     average waiting than the same-size disjoint workload *)
  let hot = Examples.hot_spot 6 2 in
  let cold = Sim.Workload.disjoint ~n:6 ~m:2 in
  let run syntax =
    Sim.Des.run des_params ~syntax
      ~scheduler:(fun () -> Sched.Sgt.create ~syntax ())
  in
  let rh = run hot and rc = run cold in
  check_true "disjoint waits less"
    (rc.Sim.Des.avg_waiting <= rh.Sim.Des.avg_waiting +. 1e-9)

(* The DES parks a delayed request at the wake epoch of its verdict, as
   [Sched.Driver] does, and asks again only once the epoch has moved.
   [watched] wraps an engine's [attempt] to fail on any request asked
   at the epoch it was parked at; the epoch is read as the DES reads it
   (the engine's own, else its commits plus aborts). The workloads and
   rates are P3's. With nothing re-asked at an unchanged epoch, every
   SGT Delay verdict is a fresh cycle search: [Cycle_refused] and
   [Delayed] counts agree. *)
let watched name (s : Sched.Scheduler.t) =
  let changes = ref 0 in
  let parked = Hashtbl.create 16 in
  let epoch () = Sched.Scheduler.wake_epoch s ~changes:!changes in
  let attempt (id : Names.step_id) =
    let tx = id.Names.tx and idx = id.Names.idx in
    if Hashtbl.find_opt parked tx = Some (idx, epoch ()) then
      Alcotest.failf "%s: step %d of tx %d asked again at its parked epoch"
        name idx tx;
    let r = s.Sched.Scheduler.attempt id in
    if r = Sched.Scheduler.Delay then Hashtbl.replace parked tx (idx, epoch ())
    else Hashtbl.remove parked tx;
    r
  in
  let commit id =
    incr changes;
    s.Sched.Scheduler.commit id
  in
  let on_abort tx =
    incr changes;
    Hashtbl.remove parked tx;
    s.Sched.Scheduler.on_abort tx
  in
  { s with Sched.Scheduler.attempt; commit; on_abort }

let test_des_parking () =
  let st = Random.State.make [| 5 |] in
  let low = Sim.Workload.hotspot st ~n:20 ~m:3 ~n_vars:8 ~theta:0.15 in
  let hot = Sim.Workload.hotspot st ~n:20 ~m:3 ~n_vars:4 ~theta:0.8 in
  List.iter
    (fun syntax ->
      List.iter
        (fun rate ->
          let params =
            { Sim.Des.arrival_rate = rate; exec_time = 1.0; sched_time = 0.05;
              seed = 99 }
          in
          let refused = ref 0 and delayed = ref 0 in
          let emit _ = function
            | Obs.Event.Cycle_refused _ -> incr refused
            | Obs.Event.Delayed _ -> incr delayed
            | _ -> ()
          in
          let sink = { Obs.Sink.now = 0.; enabled = true; emit } in
          ignore
            (Sim.Des.run ~sink params ~syntax ~scheduler:(fun () ->
                 watched "SGT" (Sched.Sgt.create ~sink ~syntax ())));
          check_true "SGT delays under the DES" (!delayed > 0);
          check_int "SGT Cycle_refused = Delayed under the DES" !delayed
            !refused;
          List.iter
            (fun (name, mk) ->
              ignore
                (Sim.Des.run params ~syntax ~scheduler:(fun () ->
                     watched name (mk ()))))
            [
              ("semantic", fun () -> Sched.Semantic.create ~syntax ());
              ("2PL", fun () -> Sched.Tpl_sched.create_2pl ~syntax ());
              ("sharded", fun () -> Sched.Sharded.create ~syntax ());
            ])
        [ 0.2; 1.0; 2.0 ])
    [ low; hot ]

(* Property: the DES completes for every scheduler on random workloads
   and the decomposition components are nonnegative. *)
let prop_des_total =
  QCheck.Test.make ~name:"DES completes for all schedulers" ~count:25
    QCheck.(pair (int_range 2 6) (int_range 0 1000))
    (fun (n, seed) ->
      let st = rng seed in
      let syntax = Sim.Workload.hotspot st ~n ~m:2 ~n_vars:3 ~theta:0.6 in
      List.for_all
        (fun (_, mk) ->
          let r =
            Sim.Des.run
              { Sim.Des.arrival_rate = 1.0; exec_time = 0.5; sched_time = 0.05;
                seed }
              ~syntax ~scheduler:mk
          in
          r.Sim.Des.n_transactions = n
          && r.Sim.Des.avg_scheduling >= 0.
          && r.Sim.Des.avg_waiting >= -1e-9
          && r.Sim.Des.avg_execution > 0.)
        (Sim.Measure.standard_suite syntax))

let suite =
  [
    Alcotest.test_case "var pool" `Quick test_var_pool;
    Alcotest.test_case "uniform workload" `Quick test_uniform;
    Alcotest.test_case "hotspot extreme" `Quick test_hotspot_extreme;
    Alcotest.test_case "single-variable generators" `Quick
      test_single_variable_generators;
    Alcotest.test_case "disjoint workload" `Quick test_disjoint;
    Alcotest.test_case "chain hierarchy" `Quick test_chain;
    Alcotest.test_case "counters semantics" `Quick test_counters_system;
    Alcotest.test_case "transfers semantics" `Quick test_transfers_system;
    Alcotest.test_case "exact fixpoint counts" `Quick test_exact_fixpoint_counts;
    Alcotest.test_case "sample row" `Quick test_sample_row;
    Alcotest.test_case "scheduler ordering" `Quick test_compare_ordering;
    Alcotest.test_case "standard suite" `Quick test_standard_suite_runs;
    Alcotest.test_case "DES serial" `Quick test_des_serial;
    Alcotest.test_case "DES decomposition" `Quick test_des_decomposition;
    Alcotest.test_case "DES contention" `Quick test_des_contention_hurts;
    Alcotest.test_case "DES parks on the wake epoch" `Quick test_des_parking;
  ]
  @ qsuite [ prop_des_total ]
