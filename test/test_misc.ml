(* Coverage for the remaining API surface, plus the §5.4
   "unstructured variables" angle: 2PL commutes with variable renamings
   (which is why it can be optimal among separable policies on
   unstructured data), while 2PL' and tree locking depend on
   distinguished/structured variables. *)

open Util
open Core

(* --- renaming invariance --- *)

let rename_locked f (l : Locking.Locked.t) =
  Array.map
    (Array.map (fun s ->
         match s with
         | Locking.Locked.Lock x -> Locking.Locked.Lock (f x)
         | Locking.Locked.Unlock x -> Locking.Locked.Unlock (f x)
         | Locking.Locked.Action id -> Locking.Locked.Action id))
    l.Locking.Locked.txs

let prop_2pl_renaming_invariant =
  QCheck.Test.make ~name:"2PL commutes with variable renamings" ~count:80
    (QCheck.make (syntax_gen ~max_n:3 ~max_m:3 ~n_vars:3))
    (fun syntax ->
      let f v = v ^ "_r" in
      let before = Locking.Two_phase.apply (Syntax.rename f syntax) in
      let after = rename_locked f (Locking.Two_phase.apply syntax) in
      before.Locking.Locked.txs = after)

let test_2pl_prime_not_renaming_invariant () =
  (* swapping x and y moves the distinguished variable: the transforms
     differ beyond a consistent relabeling *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ] ] in
  let swap v = if v = "x" then "y" else if v = "y" then "x" else v in
  let before =
    Locking.Two_phase_prime.apply ~distinguished:"x" (Syntax.rename swap syntax)
  in
  let after =
    rename_locked swap (Locking.Two_phase_prime.apply ~distinguished:"x" syntax)
  in
  check_false "2PL' singles out x" (before.Locking.Locked.txs = after)

let test_mutex_renaming_invariant () =
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y" ] ] in
  let f v = v ^ "!" in
  let before = Locking.Mutex_policy.apply (Syntax.rename f syntax) in
  let after = rename_locked f (Locking.Mutex_policy.apply syntax) in
  (* the mutex name is not a data variable, so it is untouched on both
     sides only if the renaming fixes it; compare outputs instead *)
  check_int "same structure"
    (Array.length before.Locking.Locked.txs.(0))
    (Array.length after.(0))

(* --- smaller API corners --- *)

let test_schedule_prefix_positions () =
  let h = Schedule.of_interleaving [| 0; 1; 0 |] in
  check_int "prefix length" 2 (Array.length (Schedule.prefix h 2));
  let pos = Schedule.positions h in
  check_int "positions" 3 (List.length pos);
  check_true "first is T11"
    (match pos with
    | (id, 0) :: _ -> Names.equal_step id (Names.step 0 0)
    | _ -> false)

let test_names_pp () =
  Alcotest.(check string) "small" "T11" (Names.step_to_string (Names.step 0 0));
  Alcotest.(check string) "large" "T(12,4)"
    (Names.step_to_string (Names.step 11 3))

let test_interleave_fold () =
  let count = Combin.Interleave.fold [| 2; 1 |] (fun acc _ -> acc + 1) 0 in
  check_int "fold visits all" 3 count

let test_digraph_pp () =
  let g = Digraph.create 2 in
  Digraph.add_edge g 0 1;
  check_true "pp renders" (String.length (Format.asprintf "%a" Digraph.pp g) > 0)

let test_state_pp () =
  Alcotest.(check string) "state" "{a=1}"
    (State.to_string (State.of_ints [ ("a", 1) ]));
  Alcotest.(check string) "empty" "{}" (State.to_string State.empty)

let test_value_pp () =
  Alcotest.(check string) "int" "3" (Expr.Value.to_string (Expr.Value.Int 3));
  Alcotest.(check string) "bool" "true" (Expr.Value.to_string (Expr.Value.Bool true));
  Alcotest.(check string) "str" "\"a\"" (Expr.Value.to_string (Expr.Value.Str "a"));
  Alcotest.(check string) "domain" "[0..3]"
    (Format.asprintf "%a" Expr.Value.pp_domain (Expr.Value.Int_range (0, 3)))

let test_weak_sr_max_states_guard () =
  (* tiny exploration budget: the search self-limits without raising *)
  let fig1 = Examples.fig1 in
  let probes = [ State.of_ints [ ("x", 0) ] ] in
  let verdict =
    Weak_sr.check ~max_states:2 fig1 ~probes Examples.fig1_history
  in
  check_true "bounded exploration terminates"
    (match verdict with
    | Weak_sr.Weakly_serializable _ | Weak_sr.Refuted _ -> true)

let test_herbrand_term_size () =
  let t =
    Herbrand.App
      (Names.step 0 1, [ Herbrand.Init "x"; Herbrand.App (Names.step 1 0, []) ])
  in
  check_int "term size" 3 (Herbrand.term_size t)

let test_system_pp_smoke () =
  check_true "system renders"
    (String.length (Format.asprintf "%a" System.pp Examples.banking) > 100)

let test_syntax_errors () =
  check_true "empty system rejected"
    (try ignore (Syntax.make [||]); false with Invalid_argument _ -> true);
  check_true "var out of range"
    (try ignore (Syntax.var Examples.fig3_pair (Names.step 5 0)); false
     with Invalid_argument _ -> true)

let test_driver_livelock_guard () =
  (* a scheduler that delays everything and cannot resolve stalls fails
     cleanly instead of spinning *)
  let broken =
    Sched.Scheduler.make ~name:"never"
      ~attempt:(fun _ -> Sched.Scheduler.Delay)
      ~commit:(fun _ -> ())
      ~victim:(fun _ -> None)
      ()
  in
  check_true "driver raises typed Stall"
    (try
       ignore (Sched.Driver.run broken ~fmt:[| 1 |] ~arrivals:[| 0 |]);
       false
     with Sched.Driver.Stall _ -> true)

let test_tree_spanning_single () =
  let h = [ ("a", "r") ] in
  Alcotest.(check (list string)) "single var" [ "a" ]
    (Locking.Tree_lock.spanning_subtree h [ "a" ]);
  Alcotest.(check (list string)) "empty" []
    (Locking.Tree_lock.spanning_subtree h [])

let test_tree_cross_trees_rejected () =
  let h = [] in
  (* two roots: no common tree *)
  check_true "cross-tree accesses rejected"
    (try ignore (Locking.Tree_lock.spanning_subtree h [ "a"; "b" ]); false
     with Invalid_argument _ -> true)

(* 2PL geometry: the common point is exactly the pair of phase shifts. *)
let prop_2pl_common_point_exists =
  QCheck.Test.make ~name:"2PL two-transaction blocks share a point"
    ~count:80
    (QCheck.make (syntax_gen ~max_n:2 ~max_m:4 ~n_vars:2))
    (fun syntax ->
      Syntax.n_transactions syntax <> 2
      ||
      let geo = Locking.Geometry.analyse (Locking.Two_phase.apply syntax) in
      match Locking.Geometry.blocks geo with
      | [] -> true
      | _ -> Locking.Geometry.common_point geo <> None)

(* legality of locked schedules is prefix-monotone *)
let prop_legal_prefix_monotone =
  QCheck.Test.make ~name:"locked legality is prefix-monotone" ~count:60
    (QCheck.make
       QCheck.Gen.(
         pair (syntax_gen ~max_n:2 ~max_m:3 ~n_vars:2) int))
    (fun (syntax, seed) ->
      let locked = Locking.Two_phase.apply syntax in
      let st = rng seed in
      let fmt = Locking.Locked.format locked in
      let il = Combin.Interleave.random st fmt in
      (not (Locking.Locked.legal locked il))
      || List.for_all
           (fun k -> Locking.Locked.legal_prefix locked (Array.sub il 0 k))
           (List.init (Array.length il) (fun k -> k + 1)))

let suite =
  [
    Alcotest.test_case "2PL' breaks renaming" `Quick test_2pl_prime_not_renaming_invariant;
    Alcotest.test_case "mutex renaming" `Quick test_mutex_renaming_invariant;
    Alcotest.test_case "schedule prefix/positions" `Quick test_schedule_prefix_positions;
    Alcotest.test_case "names printing" `Quick test_names_pp;
    Alcotest.test_case "interleave fold" `Quick test_interleave_fold;
    Alcotest.test_case "digraph printing" `Quick test_digraph_pp;
    Alcotest.test_case "state printing" `Quick test_state_pp;
    Alcotest.test_case "value printing" `Quick test_value_pp;
    Alcotest.test_case "weak-sr state budget" `Quick test_weak_sr_max_states_guard;
    Alcotest.test_case "herbrand term size" `Quick test_herbrand_term_size;
    Alcotest.test_case "system printing" `Quick test_system_pp_smoke;
    Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
    Alcotest.test_case "driver livelock guard" `Quick test_driver_livelock_guard;
    Alcotest.test_case "tree spanning corners" `Quick test_tree_spanning_single;
    Alcotest.test_case "tree cross-tree rejected" `Quick test_tree_cross_trees_rejected;
  ]
  @ qsuite
      [
        prop_2pl_renaming_invariant;
        prop_2pl_common_point_exists;
        prop_legal_prefix_monotone;
      ]

(* --- last-mile coverage --- *)

let test_perm_apply () =
  Alcotest.(check (array string)) "apply"
    [| "c"; "a"; "b" |]
    (Combin.Perm.apply [| 2; 0; 1 |] [| "a"; "b"; "c" |])

let test_render_smoke () =
  let locked = Locking.Two_phase.apply Examples.fig3_pair in
  let fig = Locking.Render.figure locked in
  check_true "figure renders" (String.length fig > 50);
  check_true "has legend" (String.length (Locking.Render.axis_legend locked) > 10)

let prop_serial_order_roundtrip =
  QCheck.Test.make ~name:"serial order roundtrips" ~count:100
    QCheck.(pair (int_range 1 5) (int_range 0 1000))
    (fun (n, seed) ->
      let st = rng seed in
      let fmt = Array.init n (fun _ -> 1 + Random.State.int st 3) in
      let order = Combin.Perm.random st n in
      match Schedule.serial_order (Schedule.serial fmt order) with
      | Some o -> o = order
      | None -> false)

(* SR is prefix-closed in the RMW model: the conflict graph of a prefix
   is a subgraph of the whole. *)
let prop_sr_prefix_closed =
  QCheck.Test.make ~name:"conflict serializability is prefix-closed"
    ~count:100
    (arbitrary_syntax_and_schedule ~max_n:3 ~max_m:3 ~n_vars:2)
    (fun (syntax, h) ->
      (not (Conflict.serializable syntax h))
      || List.for_all
           (fun k -> Conflict.prefix_serializable syntax h k)
           (List.init (Array.length h) (fun k -> k + 1)))

(* reachable_finals witnesses replay to their states. *)
let prop_reachable_witnesses_replay =
  QCheck.Test.make ~name:"reachable_finals witnesses replay" ~count:40
    QCheck.(int_range (-4) 4)
    (fun x ->
      let e = State.of_ints [ ("x", x) ] in
      List.for_all
        (fun (g, path) ->
          State.equal g (Exec.run_concatenation Examples.fig1 e path))
        (Weak_sr.reachable_finals ~max_len:3 Examples.fig1 e))

(* The information classes respect format at the bottom level. *)
let test_format_class () =
  let a = Examples.fig1 in
  let b = System.make (Syntax.of_lists [ [ "z"; "z" ]; [ "z" ] ])
      [| [| Expr.Ast.Local 0; Expr.Ast.Local 1 |]; [| Expr.Ast.Local 0 |] |]
  in
  check_true "same format, different syntax"
    (Info.same_class Info.Format_only a b);
  check_false "not syntactically equal" (Info.same_class Info.Syntactic a b)

let json_of_string s =
  match Obs.Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.fail (Obs.Json.error_to_string e)

let member k = function Obs.Json.Object m -> List.assoc_opt k m | _ -> None

(* Regenerating BENCH_sched.json in place must keep top-level keys
   other tools put there (e.g. the checker-throughput section). *)
let test_bench_merge_preserving () =
  let fresh = json_of_string "{\"benchmark\": \"b1\", \"results\": [1, 2]}" in
  let existing =
    json_of_string
      "{\"benchmark\": \"old\", \"checker\": {\"events_per_sec\": 9}, \
       \"note\": \"hand-added\"}"
  in
  let merged = Obs.Json.merge ~existing fresh in
  (* fresh members win and come first; foreign ones follow in order *)
  check_true "fresh keys win, foreign keys and annotations preserved"
    (merged
    = json_of_string
        "{\"benchmark\": \"b1\", \"results\": [1, 2], \"checker\": \
         {\"events_per_sec\": 9}, \"note\": \"hand-added\"}");
  check_true "merged prints and parses back" (json_round_trips merged);
  (* idempotent: merging the merge changes nothing *)
  check_true "merge idempotent"
    (Obs.Json.merge ~existing:merged merged = merged);
  (* an unparseable existing file never reaches the merge: the parser
     names its position, and ccopt reports it and writes fresh output *)
  check_true "garbage existing ignored"
    (match Obs.Json.parse "not json { at all" with
    | Error { Obs.Json.line = 1; col = 1; _ } -> true
    | _ -> false);
  check_true "non-object existing ignored"
    (Obs.Json.merge ~existing:(json_of_string "[1,2,3]") fresh = fresh);
  (* nothing to add: fresh already has every key *)
  check_true "no-op merge"
    (Obs.Json.merge ~existing:(json_of_string "{\"benchmark\": 0}") fresh
    = fresh)

let test_bench_merge_preserves_sections () =
  (* regenerating BENCH_sched.json with a section disabled must keep the
     existing member — each section is emitted by real spec runs here,
     not hand-written strings, so this breaks if an emitter renames its
     member *)
  let spec = Sim.Sched_bench.smoke in
  let json spec =
    Sim.Sched_bench.to_json spec (Sim.Sched_bench.sections spec)
  in
  let existing = json spec in
  let fresh = json { spec with twopc_fault_rates = [] } in
  check_true "smoke spec emits the twopc member"
    (member "twopc" existing <> None);
  check_true "fresh run lacks the twopc member" (member "twopc" fresh = None);
  let merged = Obs.Json.merge ~existing fresh in
  check_true "merged prints and parses back" (json_round_trips merged);
  check_true "twopc section preserved across regeneration"
    (member "twopc" merged = member "twopc" existing);
  check_true "twopc sweep content intact"
    (match member "twopc" merged with
    | Some t -> member "coordinator_crash" t <> None && member "sweep" t <> None
    | None -> false);
  check_true "fresh results win"
    (member "results" merged = member "results" fresh)

(* The committed trajectory files: regenerating either from a smoke run
   keeps, value-identical and in order, every committed member the run
   does not emit. BENCH_sched.json has no such member: every section is
   one that a run emits. *)
let test_committed_files_survive_merge () =
  let check file fresh =
    let committed = json_of_string (read_test_file ~root:true file) in
    let merged = Obs.Json.merge ~existing:committed fresh in
    let names = function
      | Obs.Json.Object m -> List.map fst m
      | _ -> Alcotest.fail (file ^ " is not an object")
    in
    let kept =
      List.filter (fun k -> member k fresh = None) (names committed)
    in
    check_true (file ^ ": merged members") (names merged = names fresh @ kept);
    List.iter
      (fun k ->
        check_true (file ^ ": " ^ k ^ " kept value-identical")
          (member k merged = member k committed))
      kept;
    List.iter
      (fun k ->
        check_true (file ^ ": " ^ k ^ " from the fresh run")
          (member k merged = member k fresh))
      (names fresh);
    check_true (file ^ ": merge prints and parses back")
      (json_round_trips merged);
    kept
  in
  (* what [ccopt bench --smoke --json] emits *)
  let spec = Sim.Sched_bench.smoke in
  let kept =
    check "BENCH_sched.json"
      (Sim.Sched_bench.to_json spec (Sim.Sched_bench.sections spec))
  in
  check_true "BENCH_sched.json keeps nothing" (kept = []);
  let cspec = Sim.Check_bench.smoke in
  ignore
    (check "BENCH_check.json"
       (Sim.Check_bench.to_json cspec (Sim.Check_bench.run cspec)))

let suite =
  suite
  @ [
      Alcotest.test_case "perm apply" `Quick test_perm_apply;
      Alcotest.test_case "render smoke" `Quick test_render_smoke;
      Alcotest.test_case "format class" `Quick test_format_class;
      Alcotest.test_case "bench JSON merge preserves keys" `Quick
        test_bench_merge_preserving;
      Alcotest.test_case "bench JSON merge preserves opt-in sections" `Quick
        test_bench_merge_preserves_sections;
      Alcotest.test_case "committed bench files survive a merge" `Quick
        test_committed_files_survive_merge;
    ]
  @ qsuite
      [
        prop_serial_order_roundtrip;
        prop_sr_prefix_closed;
        prop_reachable_witnesses_replay;
      ]
