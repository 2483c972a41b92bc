(* The multi-version scheduler family ([Sched.Mvcc]/[Si]/[Ssi]) against
   its independent oracles.

   Four layers, mirroring README/DESIGN "Multi-version engines":

   - the version store itself, model-checked against a naive
     association-list store: snapshot reads return the newest committed
     version at or before the snapshot, first-committer-wins fires iff
     an overlapping committed writer exists, version chains are pruned
     exactly down to what some live snapshot can still reach, and the
     store's indexes (minimum live snapshot, retained records, the
     readers concurrent with a snapshot) equal naive scans, across
     restarts of live ids;
   - differential oracles on micro-universes: on pure-RMW universes
     every history SSI commits is Herbrand-serializable and checker-SER;
     on a curated typed universe SSI's fixpoint set strictly contains
     SGT's (snapshot reads commute where single-version conflicts
     cannot); on disjoint workloads SI admits everything SGT admits;
     and one universe exhibits SSI's documented incompleteness — a
     dangerous structure without a cycle, aborted anyway and flagged
     [Pivot_refused { cyclic = false }];
   - a write-skew regression corpus: the classic anomalies are
     SI-accepted (checker: SI-consistent, SER-violating with a
     replaying witness) and SSI-aborted (restart, serializable
     output);
   - decision pins: every MVCC/SI/SSI decision and emitted event on
     seeded streams in the benchmark's three traffic shapes, against a
     golden file. *)

open Util
open Core
module C = Analysis.Checker
module H = Analysis.History
module Mv = Sched.Mvstore

let syn = Analysis.Analyze.parse_syntax

(* -------------------------------------------------------------- *)
(* Version-store model checking                                    *)
(* -------------------------------------------------------------- *)

(* The naive model: committed versions per variable, newest first. *)
type mversion = { mts : int; mvalue : int; mwriter : int }

type model = {
  mutable chains : (Names.var * mversion list) list;
  mutable mclock : int;
}

let model_read_at md x ~snap =
  match List.assoc_opt x md.chains with
  | None -> Mv.initial_value
  | Some vs -> (
    match List.find_opt (fun v -> v.mts <= snap) vs with
    | Some v -> v.mvalue
    | None -> Mv.initial_value)

let model_writer_at md x ~snap =
  match List.assoc_opt x md.chains with
  | None -> None
  | Some vs -> (
    match List.find_opt (fun v -> v.mts <= snap) vs with
    | Some v -> Some v.mwriter
    | None -> None)

let model_ww_conflict md ~snap ~excluding vars =
  List.exists
    (fun x ->
      match List.assoc_opt x md.chains with
      | None -> false
      | Some vs ->
        List.exists (fun v -> v.mts > snap && v.mwriter <> excluding) vs)
    vars

let model_commit md id writes =
  md.mclock <- md.mclock + 1;
  let ts = md.mclock in
  List.iter
    (fun (x, value) ->
      let prev = Option.value ~default:[] (List.assoc_opt x md.chains) in
      md.chains <-
        (x, { mts = ts; mvalue = value; mwriter = id } :: prev)
        :: List.remove_assoc x md.chains)
    writes;
  ts

(* What the store's chain must look like after pruning at [s_min]:
   every version some snapshot >= s_min can reach — the ones newer than
   s_min plus the newest at or before it. *)
let model_visible md x ~s_min =
  match List.assoc_opt x md.chains with
  | None -> []
  | Some vs ->
    let newer = List.filter (fun v -> v.mts > s_min) vs in
    (match List.find_opt (fun v -> v.mts <= s_min) vs with
    | Some v -> newer @ [ v ]
    | None -> newer)

(* Installers of versions newer than [than] over the model's full,
   unpruned chain. *)
let model_newer_writers md x ~than ~excluding =
  match List.assoc_opt x md.chains with
  | None -> []
  | Some vs ->
    List.filter_map
      (fun v -> if v.mts > than && v.mwriter <> excluding then Some v.mwriter
        else None)
      vs
    |> List.sort_uniq Int.compare

let mv_vars = [ "x"; "y"; "z"; "u"; "v"; "w" ]

(* A model-side transaction: the store's record, its buffered writes
   and the variables it read from the store. *)
type mtxn = { rec_ : Mv.txn; buf : (Names.var * int) list ref;
              mreads : Names.var list ref }

let test_mvstore_model () =
  (* the per-operation probes run millions of times: fail fast, without
     Alcotest's per-check bookkeeping *)
  let expect name b = if not b then Alcotest.fail name in
  for seed = 0 to 149 do
    let st = rng seed in
    let store = Mv.create () in
    let md = { chains = []; mclock = 0 } in
    let live = ref [] in
    (* committed transactions with their commit timestamps *)
    let committed = ref [] in
    let next_id = ref 0 in
    let pick l = List.nth l (Random.State.int st (List.length l)) in
    let start id =
      let t = Mv.begin_txn store id in
      check_int "snapshot pins the clock" (Mv.clock store) (Mv.snapshot t);
      live := { rec_ = t; buf = ref []; mreads = ref [] } :: !live
    in
    let finish m = live := List.filter (fun u -> u != m) !live in
    for _op = 1 to 120 do
      (match Random.State.int st 8 with
      | 0 | 1 when List.length !live < 8 ->
        let id = !next_id in
        incr next_id;
        start id
      | 2 when !live <> [] ->
        (* read: own buffer first, else newest committed <= snapshot *)
        let m = pick !live in
        let t = m.rec_ in
        let x = pick mv_vars in
        let value, writer = Mv.read store t x in
        (match List.assoc_opt x !(m.buf) with
        | Some v ->
          check_int "own-buffer read" v value;
          check_true "own-buffer read has no writer" (writer = None)
        | None ->
          if not (List.mem x !(m.mreads)) then m.mreads := x :: !(m.mreads);
          check_int "snapshot read value"
            (model_read_at md x ~snap:(Mv.snapshot t))
            value;
          check_true "snapshot read writer"
            (writer = model_writer_at md x ~snap:(Mv.snapshot t)))
      | 3 when !live <> [] ->
        let m = pick !live in
        let x = pick mv_vars in
        let v = Mv.write store m.rec_ x in
        m.buf := (x, v) :: List.remove_assoc x !(m.buf)
      | 4 when !live <> [] ->
        (* commit attempt: the FCW probe must agree with the model;
           commit regardless (the store is policy-free — MVCC installs
           over conflicts, exercising lost updates too) *)
        let m = pick !live in
        let t = m.rec_ in
        let vars = List.map fst !(m.buf) in
        let fired =
          Mv.ww_conflict store ~snap:(Mv.snapshot t)
            ~excluding:t.Mv.id vars
          <> None
        in
        check_true "first-committer-wins iff overlapping committed writer"
          (fired
          = model_ww_conflict md ~snap:(Mv.snapshot t) ~excluding:t.Mv.id
              vars);
        let ts = Mv.commit store t in
        Alcotest.check_raises "a committed record cannot commit again"
          (Invalid_argument "Mvstore.commit: transaction is not live")
          (fun () -> ignore (Mv.commit store t));
        let mts = model_commit md t.Mv.id !(m.buf) in
        check_int "commit timestamps advance in lockstep" mts ts;
        check_int "store clock follows" md.mclock (Mv.clock store);
        committed := (m, mts) :: !committed;
        finish m
      | 5 when !live <> [] ->
        let m = pick !live in
        Mv.abort store m.rec_;
        finish m
      | 6 when !live <> [] ->
        (* restart without an abort: the live incarnation is replaced *)
        let m = pick !live in
        finish m;
        start m.rec_.Mv.id
      | 7 when !live <> [] ->
        let m = pick !live in
        Mv.abort store m.rec_;
        finish m;
        start m.rec_.Mv.id
      | _ -> ());
      (* the minimum live snapshot is the naive minimum *)
      let naive_min =
        List.fold_left
          (fun acc m ->
            let s = Mv.snapshot m.rec_ in
            match acc with None -> Some s | Some a -> Some (min a s))
          None !live
      in
      check_true "min_live_snapshot = naive minimum"
        (Mv.min_live_snapshot store = naive_min);
      (* pruning invariant: chains hold exactly what a live snapshot
         (or the present) can still reach *)
      let s_min =
        match Mv.min_live_snapshot store with
        | Some s -> s
        | None -> Mv.clock store
      in
      List.iter
        (fun x ->
          let got =
            List.map
              (fun (v : Mv.version) ->
                { mts = v.Mv.ts; mvalue = v.Mv.value; mwriter = v.Mv.writer })
              (Mv.chain store x)
          in
          check_true "chain pruned to reachable versions"
            (got = model_visible md x ~s_min))
        mv_vars;
      (* retained records: exactly the commits after [s_min] *)
      List.iter
        (fun (m, mts) ->
          check_true "retained iff committed after s_min"
            (match Mv.retained_txn store m.rec_.Mv.id with
            | Some u -> u == m.rec_ && mts > s_min
            | None -> mts <= s_min))
        !committed;
      (* probes over every live snapshot and the present: the version
         queries agree with the model's full chains, and the readers
         concurrent with the snapshot are a naive scan of the live and
         committed transactions *)
      List.iter
        (fun (snap, excluding) ->
          List.iter
            (fun x ->
              expect "newer_writers agrees with the full chain"
                (Mv.newer_writers store x ~than:snap ~excluding
                = model_newer_writers md x ~than:snap ~excluding);
              let reader m =
                m.rec_.Mv.id <> excluding && List.mem x !(m.mreads)
              in
              let naive =
                List.filter_map
                  (fun m -> if reader m then Some m.rec_ else None)
                  !live
                @ List.filter_map
                    (fun (m, mts) ->
                      if mts > snap && reader m then Some m.rec_ else None)
                    !committed
              in
              let got = ref [] in
              ignore
                (Mv.exists_concurrent_reader store x ~snap ~excluding
                   (fun t -> got := t :: !got; false));
              expect "concurrent readers = naive scan"
                (List.length !got = List.length naive
                && List.for_all (fun t -> List.memq t naive) !got))
            mv_vars;
          expect "ww_conflict agrees with the full chain"
            (Mv.ww_conflict store ~snap ~excluding mv_vars <> None
            = model_ww_conflict md ~snap ~excluding mv_vars))
        ((Mv.clock store, -1)
        :: List.map (fun m -> (Mv.snapshot m.rec_, m.rec_.Mv.id)) !live);
      (* spot-check snapshot reads over every reachable timestamp *)
      List.iter
        (fun x ->
          for snap = s_min to Mv.clock store do
            check_int "read_at agrees with the model"
              (model_read_at md x ~snap)
              (Mv.read_at store x ~snap)
          done)
        mv_vars
    done
  done

(* Pruning with no live snapshot must never lose the present: when the
   last live transaction commits or aborts, [prune] falls back to
   [s_min = clock], and the chain must keep exactly the newest
   committed version per variable — a snapshot pinned afterwards reads
   it. A random walk that repeatedly drains the live set to empty and
   re-reads through a fresh snapshot (PR 8 satellite audit: the
   fallback is correct; this pins it). *)
let test_prune_without_live_snapshot () =
  for seed = 0 to 99 do
    let st = rng seed in
    let store = Mv.create () in
    (* expected current value per variable, tracked naively *)
    let current = ref (List.map (fun x -> (x, Mv.initial_value)) mv_vars) in
    for _round = 1 to 20 do
      (* a burst of overlapping transactions, all resolved before the
         round ends: afterwards the store has no live snapshot *)
      let burst =
        List.init (1 + Random.State.int st 3) (fun i ->
            Mv.begin_txn store (100 * seed + i))
      in
      let writes =
        List.map
          (fun t ->
            let x = List.nth mv_vars (Random.State.int st 3) in
            let v = Mv.write store t x in
            (t, x, v))
          burst
      in
      List.iter
        (fun (t, x, v) ->
          if Random.State.bool st then begin
            ignore (Mv.commit store t);
            current := (x, v) :: List.remove_assoc x !current
          end
          else Mv.abort store t)
        writes;
      check_true "no live snapshot left" (Mv.min_live_snapshot store = None);
      (* the chain retains the newest committed version, and only it *)
      List.iter
        (fun x ->
          (match Mv.chain store x with
          | [] -> check_int "unwritten variable" Mv.initial_value
                    (List.assoc x !current)
          | [ v ] ->
            check_int "newest version survives pruning"
              (List.assoc x !current) v.Mv.value
          | _ :: _ :: _ ->
            Alcotest.fail "pruning with no live snapshot left a dead version");
          (* a snapshot taken after pruning reads the current value *)
          let t = Mv.begin_txn store (-1) in
          let value, _ = Mv.read store t x in
          check_int "post-prune snapshot read" (List.assoc x !current) value;
          Mv.abort store t)
        mv_vars
    done
  done

(* -------------------------------------------------------------- *)
(* Differential oracles on micro-universes                         *)
(* -------------------------------------------------------------- *)

let ser_consistent h =
  match (C.check h C.Serializability).C.verdict with
  | C.Consistent o -> C.validate_order h C.Serializability o
  | _ -> false

let witness_replays h level (w : C.witness) =
  match w with
  | C.Cycle edges -> C.replay_cycle h level edges
  | C.No_order _ -> H.n h > 8 || not (C.exists_order h level)
  | (C.Dangling_read _ | C.Ambiguous_write _ | C.Internal_misread _) as w ->
    List.mem w (C.well_formed h)

(* Drive one engine over an explicit arrival order, with the trace
   recorded so the committed history can be reconstructed. *)
let run_mv mk syntax arrivals =
  let ring = Obs.Sink.Ring.create ~capacity:(1 lsl 14) in
  let sink = Obs.Sink.Ring.sink ring in
  let stats =
    Sched.Driver.run ~sink (mk sink syntax) ~fmt:(Syntax.format syntax)
      ~arrivals
  in
  let events = Obs.Sink.Ring.events ring in
  check_int "no ring drops" 0 (Obs.Sink.Ring.dropped ring);
  (stats, events, Sim.Check_fuzz.history_of_events ~label:"mv" syntax events)

let mvcc sink syntax = Sched.Mvcc.create ~sink ~syntax ()
let si sink syntax = Sched.Si.create ~sink ~syntax ()
let ssi sink syntax = Sched.Ssi.create ~sink ~syntax ()

let arrivals_of sched =
  Array.map (fun (s : Names.step_id) -> s.Names.tx) sched

(* On pure-RMW syntaxes first-committer-wins forces read-latest, so
   SSI's committed output schedule is exactly a single-version
   execution: the Herbrand oracle applies to it, and the trace-side
   history must be checker-serializable. *)
let test_ssi_herbrand_exhaustive () =
  List.iter
    (fun spec ->
      let syntax = syn spec in
      List.iter
        (fun sched ->
          let stats, _, h = run_mv ssi syntax (arrivals_of sched) in
          check_true
            (spec ^ ": SSI output Herbrand-serializable")
            (Herbrand.serializable syntax stats.Sched.Driver.output);
          check_true (spec ^ ": SSI history checker-SER") (ser_consistent h))
        (Schedule.all (Syntax.format syntax)))
    [ "x,x"; "xy,yx"; "xx,x"; "x,x,x"; "xy,y"; "xyz,zx" ]

let fixpoint mk syntax =
  Sched.Driver.fixpoint_of
    (fun () -> mk Obs.Sink.null syntax)
    (Syntax.format syntax)

let subset a b = List.for_all (fun s -> List.mem s b) a

(* T0 = [U x, U y] vs the read-only T1 = [R y, R x]: every
   single-version interleaving T1.0 < T0.1 and T0.0 < T1.1 is a
   conflict cycle SGT must break, but T1's snapshot reads serialize it
   before T0 regardless of arrival — SSI admits every schedule. *)
let test_ssi_fixpoint_strictly_contains_sgt () =
  let syntax = syn "xy,YX" in
  let sgt sink syntax = Sched.Sgt.create ~sink ~syntax () in
  let fp_sgt = fixpoint sgt syntax in
  let fp_ssi = fixpoint ssi syntax in
  check_true "SGT fixpoint inside SSI's" (subset fp_sgt fp_ssi);
  check_int "SSI admits the whole universe"
    (List.length (Schedule.all (Syntax.format syntax)))
    (List.length fp_ssi);
  check_true "containment is strict"
    (List.length fp_ssi > List.length fp_sgt)

(* Disjoint transactions never conflict: SI (no shared update, so
   first-committer-wins never fires) admits everything SGT does. *)
let test_si_fixpoint_contains_sgt_on_disjoint () =
  let syntax = Sim.Workload.disjoint ~n:3 ~m:2 in
  let sgt sink syntax = Sched.Sgt.create ~sink ~syntax () in
  let fp_sgt = fixpoint sgt syntax in
  let fp_si = fixpoint si syntax in
  check_true "SGT fixpoint inside SI's" (subset fp_sgt fp_si);
  check_int "SI admits the whole disjoint universe"
    (List.length (Schedule.all (Syntax.format syntax)))
    (List.length fp_si)

(* MVCC never delays and never aborts: its fixpoint set is the whole
   universe even where every single-version engine must intervene. *)
let test_mvcc_fixpoint_is_everything () =
  let syntax = syn "xy,yx" in
  check_int "MVCC fixpoint = H"
    (List.length (Schedule.all (Syntax.format syntax)))
    (List.length (fixpoint mvcc syntax))

(* SSI's documented incompleteness: T0 = [R y], T1 = [R z, U y],
   T2 = [U z] with T2 and T0 committing inside T1 builds the dangerous
   structure T0 -rw-> T1 -rw-> T2 with no cycle behind it. SSI aborts
   T1 anyway and must classify the abort as a false positive; SI runs
   the same arrivals untouched and commits a serializable history. *)
let test_ssi_false_positive_abort () =
  let syntax = syn "Y,Zy,z" in
  let arrivals = [| 1; 2; 0; 1 |] in
  let stats, events, h = run_mv ssi syntax arrivals in
  check_int "SSI aborts the pivot" 1 stats.Sched.Driver.restarts;
  check_true "abort flagged as false positive"
    (List.exists
       (fun (_, e) ->
         match e with
         | Obs.Event.Pivot_refused { cyclic = false; _ } -> true
         | _ -> false)
       events);
  check_true "SSI output still serializable" (ser_consistent h);
  let stats_si, _, h_si = run_mv si syntax arrivals in
  check_int "SI accepts the same arrivals" 0 stats_si.Sched.Driver.restarts;
  check_true "and its history was serializable all along"
    (ser_consistent h_si)

(* -------------------------------------------------------------- *)
(* Write-skew regression corpus                                    *)
(* -------------------------------------------------------------- *)

(* Anomalies from the snapshot-isolation literature, as typed syntaxes
   (uppercase = read) with a fixed arrival order that exhibits them. *)
let corpus =
  [
    (* two constraints-checking writers, disjoint write sets *)
    ("classic write skew", "Yx,Xy", [| 0; 1; 0; 1 |]);
    (* Fekete-O'Neil-O'Neil: the read-only T1 observes T2's update but
       not T0's, in no serial order consistent with T0 reading x before
       T2 wrote it *)
    ("read-only transaction anomaly", "Xy,XY,x", [| 0; 2; 1; 1; 0 |]);
    (* the on-call rota: both doctors check both flags, each clears
       only their own *)
    ("on-call rota", "XYx,XYy", [| 0; 1; 0; 1; 0; 1 |]);
  ]

let test_corpus_si_accepts_ssi_aborts () =
  List.iter
    (fun (name, spec, arrivals) ->
      let syntax = syn spec in
      (* SI: committed untouched, SI-consistent, SER-violating with a
         witness that replays *)
      let stats, _, h = run_mv si syntax arrivals in
      check_int (name ^ ": SI accepts") 0 stats.Sched.Driver.restarts;
      check_true
        (name ^ ": SI-consistent")
        (match (C.check h C.Snapshot_isolation).C.verdict with
        | C.Consistent _ -> true
        | _ -> false);
      (match (C.check h C.Serializability).C.verdict with
      | C.Violation w ->
        check_true
          (name ^ ": SER witness replays")
          (witness_replays h C.Serializability w)
      | _ -> check_true (name ^ ": SER violation expected") false);
      (* SSI: the pivot aborts (a genuine cycle), the retry commits a
         serializable history *)
      let stats, events, h = run_mv ssi syntax arrivals in
      check_true (name ^ ": SSI aborts") (stats.Sched.Driver.restarts >= 1);
      check_true
        (name ^ ": abort is a dangerous structure with a real cycle")
        (List.exists
           (fun (_, e) ->
             match e with
             | Obs.Event.Pivot_refused { cyclic = true; _ } -> true
             | _ -> false)
           events);
      check_true (name ^ ": SSI output serializable") (ser_consistent h))
    corpus

(* -------------------------------------------------------------- *)
(* Decision pins                                                   *)
(* -------------------------------------------------------------- *)

(* One line per (stream, engine): restarts, grants, the pivot aborts
   (and how many of them were false positives), MD5s of the committed
   schedule and of the full event trace, and the per-transaction abort
   counts. Any change to a decision or to an emitted event moves at
   least the event digest. Also returns the total false-positive
   count. *)
let mv_decisions () =
  let buf = Buffer.create 4096 in
  let false_total = ref 0 in
  pin_streams
    [
      ("hot", pin_hot, 4);
      ("tenants", pin_tenants, 4);
      (* pivots are rare and their sticky flags rarer still: many small
         typed streams *)
      ("ledger", pin_ledger, 128);
    ]
    (fun shape seed syntax arrivals ->
      let fmt = Syntax.format syntax in
      List.iter
        (fun (engine, mk) ->
          let mem = Obs.Sink.Memory.create () in
          let sink = Obs.Sink.Memory.sink mem in
          let stats = Sched.Driver.run ~sink (mk sink syntax) ~fmt ~arrivals in
          let events = List.map snd (Obs.Sink.Memory.events mem) in
          let pivots, false_pos =
            List.fold_left
              (fun (p, f) -> function
                | Obs.Event.Pivot_refused { cyclic; _ } ->
                  (p + 1, if cyclic then f else f + 1)
                | _ -> (p, f))
              (0, 0) events
          in
          false_total := !false_total + false_pos;
          Printf.bprintf buf
            "%s seed=%d %s restarts=%d grants=%d pivots=%d false_pos=%d \
             output=%s events=%s aborts=%s\n"
            shape seed engine stats.Sched.Driver.restarts
            stats.Sched.Driver.grants pivots false_pos
            (md5_lines
               (int_list (Schedule.to_interleaving stats.Sched.Driver.output)))
            (md5_lines (List.map Obs.Event.to_string events))
            (String.concat "," (int_list stats.Sched.Driver.aborts)))
        [ ("MVCC", mvcc); ("SI", si); ("SSI", ssi) ]);
  (Buffer.contents buf, !false_total)

(* The expectation lives in mv_decisions.expected next to this file; it
   was generated before the store was indexed, and the index must leave
   every line of it unchanged. *)
let test_mv_decisions_golden () =
  let got, false_pos = mv_decisions () in
  check_true "pins include a false-positive pivot abort" (false_pos > 0);
  check_golden "mv_decisions.expected" got

let suite =
  [
    Alcotest.test_case "version store vs naive model" `Quick
      test_mvstore_model;
    Alcotest.test_case "pruning with no live snapshot keeps the present"
      `Quick test_prune_without_live_snapshot;
    Alcotest.test_case "SSI = Herbrand on exhaustive RMW universes" `Quick
      test_ssi_herbrand_exhaustive;
    Alcotest.test_case "SSI fixpoint strictly contains SGT's" `Quick
      test_ssi_fixpoint_strictly_contains_sgt;
    Alcotest.test_case "SI fixpoint contains SGT's (disjoint)" `Quick
      test_si_fixpoint_contains_sgt_on_disjoint;
    Alcotest.test_case "MVCC fixpoint is the whole universe" `Quick
      test_mvcc_fixpoint_is_everything;
    Alcotest.test_case "SSI false-positive abort" `Quick
      test_ssi_false_positive_abort;
    Alcotest.test_case "write-skew corpus: SI accepts, SSI aborts" `Quick
      test_corpus_si_accepts_ssi_aborts;
    Alcotest.test_case "decision pins (golden)" `Quick
      test_mv_decisions_golden;
  ]
