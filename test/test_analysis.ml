(* Tests for the static analysis layer: anomaly detector, lock-policy
   linter, scheduler certifier. Every witness the analyzer emits is
   replayed against the semantics here — the analyzer is not trusted. *)

open Util
open Core
module R = Analysis.Report
module An = Analysis.Anomaly
module Ll = Analysis.Lock_lint
module Cert = Analysis.Certifier
module Az = Analysis.Analyze

let syn spec = Az.parse_syntax spec
let sched spec = Schedule.of_interleaving (Az.parse_interleaving spec)

let rules ds = List.map (fun d -> d.R.rule) ds
let has_rule r ds = List.mem r (rules ds)

let anomaly_error ds =
  List.find_opt
    (fun d ->
      d.R.severity = R.Error
      && String.length d.R.rule >= 8
      && String.sub d.R.rule 0 8 = "anomaly/")
    ds

(* ---------- witness replay helpers ---------- *)

(* A cycle witness is replayed by checking every consecutive edge really
   is a conflict edge of the schedule: a step of [a] precedes a step of
   [b] on the same variable. *)
let replay_cycle syntax h cycle =
  check_true "cycle has >= 2 transactions" (List.length cycle >= 2);
  let edge a b =
    let found = ref false in
    Array.iteri
      (fun p (s : Names.step_id) ->
        Array.iteri
          (fun q (t : Names.step_id) ->
            if
              p < q && s.tx = a && t.tx = b
              && Syntax.var syntax s = Syntax.var syntax t
            then found := true)
          h)
      h;
    !found
  in
  let rec edges = function
    | a :: (b :: _ as rest) ->
      check_true "cycle edge exists" (edge a b);
      edges rest
    | [ last ] -> check_true "closing edge exists" (edge last (List.hd cycle))
    | [] -> ()
  in
  edges cycle

(* ---------- anomaly classification fixtures ---------- *)

let test_write_skew_atomic () =
  let syntax = syn "xy,yx" in
  let h = sched "0101" in
  let ds = An.check syntax h in
  check_true "write skew" (has_rule "anomaly/write-skew" ds);
  check_true "herbrand agrees" (has_rule "anomaly/herbrand-agreement" ds);
  match anomaly_error ds with
  | Some { R.witness = Some (R.Cycle c); _ } ->
    replay_cycle syntax h c;
    check_false "really not serializable" (Herbrand.serializable syntax h)
  | _ -> Alcotest.fail "expected a cycle witness"

let test_non_repeatable_atomic () =
  let syntax = syn "xx,x" in
  let h = sched "010" in
  let ds = An.check syntax h in
  check_true "non-repeatable read"
    (has_rule "anomaly/non-repeatable-read" ds);
  match anomaly_error ds with
  | Some { R.witness = Some (R.Cycle c); _ } -> replay_cycle syntax h c
  | _ -> Alcotest.fail "expected a cycle witness"

let test_lost_update_rw () =
  (* r1(x) r2(x) w1(x) w2(x): T2 overwrites T1's update unseen. *)
  let h =
    Rw_model.interleave
      [
        [ Rw_model.read "x"; Rw_model.write "x" ];
        [ Rw_model.read "x"; Rw_model.write "x" ];
      ]
      [| 0; 1; 0; 1 |]
  in
  let ds = An.check_history 2 h in
  check_true "lost update" (has_rule "anomaly/lost-update" ds)

let test_dirty_read_rw () =
  (* w1(x) r2(x) w2(y) r1(y): T2 reads mid-flight T1. *)
  let h =
    Rw_model.interleave
      [
        [ Rw_model.write "x"; Rw_model.read "y" ];
        [ Rw_model.read "x"; Rw_model.write "y" ];
      ]
      [| 0; 1; 1; 0 |]
  in
  let ds = An.check_history 2 h in
  check_true "dirty read" (has_rule "anomaly/dirty-read" ds)

let test_write_skew_rw () =
  (* r1(x) r2(y) w1(y) w2(x): the classical write skew. *)
  let h =
    Rw_model.interleave
      [
        [ Rw_model.read "x"; Rw_model.write "y" ];
        [ Rw_model.read "y"; Rw_model.write "x" ];
      ]
      [| 0; 1; 0; 1 |]
  in
  let ds = An.check_history 2 h in
  check_true "write skew" (has_rule "anomaly/write-skew" ds)

let test_three_cycle_generic () =
  (* T3 T2 T1 interleaved so the conflict graph is a pure 3-cycle:
     no pairwise pattern applies. *)
  let syntax = syn "xy,zy,xz" in
  let h = sched "210012" in
  let ds = An.check syntax h in
  check_true "generic cycle" (has_rule "anomaly/serialization-cycle" ds);
  match anomaly_error ds with
  | Some { R.witness = Some (R.Cycle c); _ } ->
    check_int "three transactions" 3 (List.length c);
    replay_cycle syntax h c
  | _ -> Alcotest.fail "expected a cycle witness"

let test_serializable_reported () =
  let syntax = syn "xy,yx" in
  let ds = An.check syntax (sched "0011") in
  check_true "serializable info" (has_rule "anomaly/serializable" ds);
  check_true "no errors"
    (List.for_all (fun d -> d.R.severity <> R.Error) ds)

(* minimal cycle really is minimal: a graph with a 3-cycle and a 2-cycle
   must yield the 2-cycle *)
let test_minimal_cycle_minimal () =
  let g = Digraph.create 4 in
  List.iter
    (fun (u, v) -> Digraph.add_edge g u v)
    [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 2) ];
  match An.minimal_cycle g with
  | Some c -> check_int "length 2" 2 (List.length c)
  | None -> Alcotest.fail "cycle expected"

(* ---------- cross-validation over whole schedule spaces ---------- *)

let test_cross_validation_exhaustive () =
  List.iter
    (fun spec ->
      let syntax = syn spec in
      let fmt = Syntax.format syntax in
      let sys = Sim.Workload.counters syntax in
      let probes = Weak_sr.default_probes ~seed:11 ~count:6 sys in
      List.iter
        (fun h ->
          let ds = An.check syntax h in
          let conflict_ok = Conflict.serializable syntax h in
          (* the detector flags an anomaly iff the conflict test (and,
             per the model, the Herbrand test) rejects *)
          check_true "anomaly iff non-serializable"
            (conflict_ok = (anomaly_error ds = None));
          check_true "cross-check ran and agreed"
            (has_rule "anomaly/herbrand-agreement" ds);
          (* WSR ⊇ SR: a weakly-refuted schedule must be flagged *)
          if not (Weak_sr.is_weakly_serializable sys ~probes h) then
            check_true "non-WSR implies anomaly" (anomaly_error ds <> None))
        (Schedule.all fmt))
    [ "xy,yx"; "xx,x"; "xyx,yx" ]

(* expansion preserves the transaction-level conflict graph *)
let prop_expand_preserves_conflicts =
  QCheck.Test.make ~name:"rw expansion preserves conflict verdict" ~count:80
    (arbitrary_syntax_and_schedule ~max_n:3 ~max_m:3 ~n_vars:2)
    (fun (syntax, h) ->
      let n = Syntax.n_transactions syntax in
      let rwh = An.expand syntax h in
      Rw_model.conflict_serializable n rwh = Conflict.serializable syntax h)

(* ---------- lock linter ---------- *)

let test_lint_2pl_deadlock_witness () =
  let syntax = syn "xy,yx" in
  let policy = Az.policy_of_name "2pl" in
  let ds = Ll.lint (Ll.of_policy policy syntax) in
  check_true "two-phase info" (has_rule "lock/two-phase" ds);
  check_true "separable" (has_rule "lock/separable" ds);
  check_true "outputs serializable" (has_rule "lock/outputs-serializable" ds);
  match List.find_opt (fun d -> d.R.rule = "lock/deadlock") ds with
  | Some { R.witness = Some (R.Progress (p, prefix)); _ } ->
    let locked = policy.Locking.Policy.apply syntax in
    (* replay: the prefix is legal, reaches p, and no extension of it
       can complete — the point is genuinely doomed *)
    check_true "prefix legal" (Locking.Locked.legal_prefix locked prefix);
    Array.iteri
      (fun i pi ->
        check_int "prefix reaches the vector" pi
          (Array.fold_left
             (fun acc t -> if t = i then acc + 1 else acc)
             0 prefix))
      p;
    let fmt = Locking.Locked.format locked in
    let remaining = Array.mapi (fun i l -> l - p.(i)) fmt in
    let completions =
      List.filter
        (fun ext ->
          Locking.Locked.legal locked (Array.append prefix ext))
        (Combin.Interleave.all remaining)
    in
    check_true "no completion from the deadlock point" (completions = []);
    (* and the geometry agrees with itself on the point *)
    let geo = Locking.Geometry_nd.analyse locked in
    check_true "nD geometry calls it deadlock"
      (Locking.Geometry_nd.deadlock geo p)
  | _ -> Alcotest.fail "expected a progress witness"

let non_two_phase_locked =
  (* releases x before locking y: incorrect locking (Figure 4(c)) *)
  let s = Examples.fig3_pair in
  let tx i =
    [
      Locking.Locked.Lock "x";
      Locking.Locked.Action (Names.step i 0);
      Locking.Locked.Unlock "x";
      Locking.Locked.Lock "y";
      Locking.Locked.Action (Names.step i 1);
      Locking.Locked.Unlock "y";
    ]
  in
  Locking.Locked.make s [ tx 0; tx 1 ]

let test_lint_non_two_phase_output () =
  let ds = Ll.lint (Ll.of_locked non_two_phase_locked) in
  check_true "two-phase warning"
    (List.exists
       (fun d -> d.R.rule = "lock/two-phase" && d.R.severity = R.Warning)
       ds);
  match
    List.find_opt (fun d -> d.R.rule = "lock/non-serializable-output") ds
  with
  | Some { R.witness = Some (R.Locked_run il); _ } ->
    check_true "witness interleaving is legal"
      (Locking.Locked.legal non_two_phase_locked il);
    check_false "its projection is not serializable"
      (Conflict.serializable Examples.fig3_pair
         (Locking.Locked.project non_two_phase_locked il))
  | _ -> Alcotest.fail "expected a locked-run witness"

let test_lint_coverage_and_pairing () =
  let s = syn "x,x" in
  (* T1 accesses x with no lock at all; T2 locks but never unlocks *)
  let input =
    {
      Ll.base = s;
      txs =
        [
          [ Locking.Locked.Action (Names.step 0 0) ];
          [
            Locking.Locked.Lock "x";
            Locking.Locked.Action (Names.step 1 0);
          ];
        ];
      policy = None;
    }
  in
  let ds = Ll.lint input in
  check_true "pairing error"
    (List.exists
       (fun d -> d.R.rule = "lock/pairing" && d.R.severity = R.Error)
       ds);
  (* pairing failed: deeper checks skipped; fix pairing, break coverage *)
  let input2 =
    {
      Ll.base = s;
      txs =
        [
          [ Locking.Locked.Action (Names.step 0 0) ];
          [
            Locking.Locked.Lock "x";
            Locking.Locked.Action (Names.step 1 0);
            Locking.Locked.Unlock "x";
          ];
        ];
      policy = None;
    }
  in
  let ds2 = Ll.lint input2 in
  check_true "coverage error"
    (List.exists
       (fun d ->
         d.R.rule = "lock/coverage" && d.R.severity = R.Error
         && d.R.steps = [ Names.step 0 0 ])
       ds2)

let test_lint_unlock_without_lock () =
  let s = syn "x" in
  let input =
    {
      Ll.base = s;
      txs =
        [
          [
            Locking.Locked.Unlock "x";
            Locking.Locked.Action (Names.step 0 0);
          ];
        ];
      policy = None;
    }
  in
  check_true "unpaired unlock reported"
    (List.exists
       (fun d -> d.R.rule = "lock/pairing" && d.R.severity = R.Error)
       (Ll.lint input))

let test_lint_preclaim_deadlock_free () =
  let ds = Ll.lint (Ll.of_policy (Az.policy_of_name "preclaim") (syn "xy,yx")) in
  check_true "deadlock-free" (has_rule "lock/deadlock-free" ds);
  check_false "no deadlock warning" (has_rule "lock/deadlock" ds)

let test_lint_non_separable () =
  (* a policy that preclaims every variable of the whole system: what it
     locks in T1 depends on T2's accesses *)
  let global_preclaim =
    {
      Locking.Policy.name = "global-preclaim";
      apply =
        (fun syntax ->
          let vars = Syntax.vars syntax in
          Locking.Locked.make syntax
            (List.init (Syntax.n_transactions syntax) (fun i ->
                 List.map (fun v -> Locking.Locked.Lock v) vars
                 @ List.init (Syntax.length syntax i) (fun j ->
                       Locking.Locked.Action (Names.step i j))
                 @ List.map (fun v -> Locking.Locked.Unlock v) vars)));
    }
  in
  (* on xy,yz the transactions have different variable sets, so locking
     the union is visibly non-separable *)
  let ds = Ll.lint (Ll.of_policy global_preclaim (syn "xy,yz")) in
  check_true "non-separable" (has_rule "lock/non-separable" ds);
  check_true "still deadlock free" (has_rule "lock/deadlock-free" ds)

(* ---------- certifier ---------- *)

let test_certify_sgt_passes () =
  let syntax = syn "xy,yx" in
  let ds =
    Cert.certify ~name:"sgt"
      ~make:(Az.scheduler_of_name syntax "sgt")
      ~level:Cert.Syntactic syntax
  in
  check_true "bound respected"
    (List.exists
       (fun d ->
         d.R.rule = "certify/information-bound" && d.R.severity = R.Info)
       ds)

let test_certify_serial_passes () =
  let syntax = syn "xx,x" in
  let ds =
    Cert.certify ~name:"serial"
      ~make:(Az.scheduler_of_name syntax "serial")
      ~level:Cert.Format_only syntax
  in
  check_true "bound respected"
    (List.for_all (fun d -> d.R.severity <> R.Error) ds)

let test_certify_catches_greedy () =
  (* a scheduler that grants everything claims P = H; at the format-only
     level the bound is the serial schedules — violations must surface *)
  let syntax = syn "xx,x" in
  let greedy () =
    Sched.Scheduler.make ~name:"greedy"
      ~attempt:(fun _ -> Sched.Scheduler.Grant)
      ~commit:(fun _ -> ())
      ()
  in
  let ds =
    Cert.certify ~name:"greedy" ~make:greedy ~level:Cert.Format_only syntax
  in
  let violations =
    List.filter
      (fun d ->
        d.R.rule = "certify/information-bound" && d.R.severity = R.Error)
      ds
  in
  check_true "violations found" (violations <> []);
  List.iter
    (fun d ->
      match d.R.witness with
      | Some (R.History h) ->
        (* replay: greedy really passes it with zero delay, and it is
           not serial — so no format-only scheduler may pass it *)
        let stats =
          Sched.Driver.run (greedy ())
            ~fmt:(Syntax.format syntax)
            ~arrivals:(Schedule.to_interleaving h)
        in
        check_true "greedy passes the witness" (Sched.Driver.zero_delay stats);
        check_false "witness is not serial" (Schedule.is_serial h)
      | _ -> Alcotest.fail "expected a history witness")
    violations

(* ---------- report plumbing and the front end ---------- *)

let test_report_json () =
  let syntax = syn "xy,yx" in
  let report =
    Az.run (Az.request ~schedule:[| 0; 1; 0; 1 |] ~policy:"2pl" syntax)
  in
  check_true "has errors" (R.errors report > 0);
  check_true "has deadlock warning" (R.find "lock/deadlock" report <> None);
  let json = R.to_json report in
  check_true "printed report parses back"
    (Obs.Json.parse (Obs.Json.to_string json) = Ok json);
  let member k = function
    | Obs.Json.Object m -> List.assoc_opt k m
    | _ -> None
  in
  let diagnostics =
    match member "diagnostics" json with
    | Some (Obs.Json.Array ds) -> ds
    | _ -> Alcotest.fail "no diagnostics array"
  in
  let has k v =
    List.exists (fun d -> member k d = Some (Obs.Json.String v)) diagnostics
  in
  let has_witness kind =
    List.exists
      (fun d ->
        match member "witness" d with
        | Some w -> member "kind" w = Some (Obs.Json.String kind)
        | None -> false)
      diagnostics
  in
  (* every machine-readable report opens with its version stamp *)
  (match json with
  | Obs.Json.Object (("schema_version", v) :: _) ->
    check_true "schema_version first" (v = Obs.Json.Int R.schema_version)
  | _ -> Alcotest.fail "schema_version is not the first member");
  check_true "write-skew rule" (has "rule" "anomaly/write-skew");
  check_true "cycle witness" (has_witness "cycle");
  check_true "progress witness" (has_witness "progress");
  check_true "summary member" (member "summary" json <> None)

let test_analyze_nothing_to_do () =
  let report = Az.run (Az.request (syn "xy,yx")) in
  check_true "explains itself" (R.find "analyze/nothing-to-do" report <> None)

let suite =
  [
    Alcotest.test_case "write skew (atomic)" `Quick test_write_skew_atomic;
    Alcotest.test_case "non-repeatable read (atomic)" `Quick
      test_non_repeatable_atomic;
    Alcotest.test_case "lost update (rw)" `Quick test_lost_update_rw;
    Alcotest.test_case "dirty read (rw)" `Quick test_dirty_read_rw;
    Alcotest.test_case "write skew (rw)" `Quick test_write_skew_rw;
    Alcotest.test_case "three-cycle generic" `Quick test_three_cycle_generic;
    Alcotest.test_case "serializable reported" `Quick
      test_serializable_reported;
    Alcotest.test_case "minimal cycle is minimal" `Quick
      test_minimal_cycle_minimal;
    Alcotest.test_case "cross-validation (exhaustive)" `Quick
      test_cross_validation_exhaustive;
    Alcotest.test_case "2PL deadlock witness replay" `Quick
      test_lint_2pl_deadlock_witness;
    Alcotest.test_case "non-2PL output witness replay" `Quick
      test_lint_non_two_phase_output;
    Alcotest.test_case "coverage and pairing" `Quick
      test_lint_coverage_and_pairing;
    Alcotest.test_case "unlock without lock" `Quick
      test_lint_unlock_without_lock;
    Alcotest.test_case "preclaim deadlock free" `Quick
      test_lint_preclaim_deadlock_free;
    Alcotest.test_case "non-separable policy" `Quick test_lint_non_separable;
    Alcotest.test_case "certify sgt" `Quick test_certify_sgt_passes;
    Alcotest.test_case "certify serial" `Quick test_certify_serial_passes;
    Alcotest.test_case "certify catches greedy" `Quick
      test_certify_catches_greedy;
    Alcotest.test_case "report json" `Quick test_report_json;
    Alcotest.test_case "nothing to do" `Quick test_analyze_nothing_to_do;
  ]
  @ qsuite [ prop_expand_preserves_conflicts ]
