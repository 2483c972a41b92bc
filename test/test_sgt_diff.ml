(* Differential tests for the incremental SGT scheduler.

   [Sched.Sgt] (Pearce–Kelly incremental conflict graph) must be
   decision-for-decision equivalent to [Sched.Sgt_ref] (the brute-force
   copy-and-recheck oracle it replaced): identical grant/delay traces on
   every interleaving of every small format, identical fixpoint sets,
   and identical driver statistics on large seeded workloads.

   The timed simulation is differentially checked against the untimed
   driver as well: with instantaneous arrivals in transaction order and
   scheduling dominating execution, [Sim.Des.run] serves requests in
   round-robin order, so its abort/deadlock counts must agree with
   [Sched.Driver.run] on the matching arrival sequence. This pins down
   the eager-detect regression where every SGT delay was answered with
   an abort and contended workloads thrashed through thousands of
   restarts. *)

open Util
open Core

(* ---------- decision traces ---------- *)

let same_stats (a : Sched.Driver.stats) (b : Sched.Driver.stats) =
  Schedule.equal a.Sched.Driver.output b.Sched.Driver.output
  && a.Sched.Driver.delays = b.Sched.Driver.delays
  && a.Sched.Driver.restarts = b.Sched.Driver.restarts
  && a.Sched.Driver.deadlocks = b.Sched.Driver.deadlocks
  && a.Sched.Driver.grants = b.Sched.Driver.grants

(* Run both SGT implementations over one arrival sequence and insist on
   identical decision traces and statistics. *)
let check_equiv syntax arrivals =
  let fmt = Syntax.format syntax in
  let t1 = ref [] and t2 = ref [] in
  let s1 =
    Sched.Driver.run (traced t1 (Sched.Sgt.create ~syntax ())) ~fmt ~arrivals
  in
  let s2 =
    Sched.Driver.run (traced t2 (Sched.Sgt_ref.create ~syntax)) ~fmt ~arrivals
  in
  check_true "identical decision traces" (!t1 = !t2);
  check_true "identical stats" (same_stats s1 s2)

(* every composition of [total] into positive parts, as formats *)
let compositions total =
  let rec go rem acc out =
    if rem = 0 then Array.of_list (List.rev acc) :: out
    else
      let rec parts p out =
        if p > rem then out else parts (p + 1) (go (rem - p) (p :: acc) out)
      in
      parts 1 out
  in
  go total [] []

(* a deterministic syntax for a format: variables drawn from a small
   pool, so repeated accesses to the same variable occur routinely *)
let syntax_of_fmt ~n_vars ~seed fmt =
  let st = rng seed in
  Syntax.make
    (Array.map
       (fun m ->
         Array.init m (fun _ -> var_names.(Random.State.int st n_vars)))
       fmt)

let test_exhaustive_small () =
  (* all formats up to total size 6, all interleavings, two contention
     levels *)
  for total = 2 to 6 do
    List.iter
      (fun fmt ->
        List.iter
          (fun (n_vars, seed) ->
            let syntax = syntax_of_fmt ~n_vars ~seed fmt in
            Combin.Interleave.iter fmt (fun arrivals ->
                check_equiv syntax (Array.copy arrivals)))
          [ (2, 17); (3, 23) ])
      (compositions total)
  done

let test_fixpoint_sets_agree () =
  (* Theorem 3's fixpoint characterisation must be preserved by the
     incremental rewrite: same fixpoint set as the oracle, which is in
     turn SR(T) (already covered by test_sched) *)
  List.iter
    (fun syntax ->
      let fmt = Syntax.format syntax in
      let fp_inc =
        Sched.Driver.fixpoint_of (fun () -> Sched.Sgt.create ~syntax ()) fmt
      in
      let fp_ref =
        Sched.Driver.fixpoint_of (fun () -> Sched.Sgt_ref.create ~syntax) fmt
      in
      check_int "fixpoint set size" (List.length fp_ref) (List.length fp_inc);
      List.iter2
        (fun a b -> check_true "fixpoint schedule" (Schedule.equal a b))
        fp_inc fp_ref)
    [
      Examples.hot_spot 2 2;
      Examples.hot_spot 3 2;
      Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ];
      Syntax.of_lists [ [ "x"; "x"; "y" ]; [ "y"; "x" ] ];
      Examples.fig1.System.syntax;
    ]

let test_repeated_access_regression () =
  (* regression for the duplicate-history bug: a transaction touching
     the same variable k times must behave exactly like the oracle (and
     its per-variable history must not blow up the edge set — observable
     here as decision divergence on the k-fold hot spot) *)
  let syntaxes =
    [
      Syntax.of_lists [ [ "x"; "x" ]; [ "x"; "x" ]; [ "x"; "x" ] ];
      Syntax.of_lists [ [ "x"; "x"; "x"; "x" ]; [ "x"; "x"; "x"; "x" ] ];
      Syntax.of_lists [ [ "x"; "x"; "y" ]; [ "y"; "x" ]; [ "x"; "y"; "y" ] ];
    ]
  in
  List.iter
    (fun syntax ->
      let fmt = Syntax.format syntax in
      Combin.Interleave.iter fmt (fun arrivals ->
          check_equiv syntax (Array.copy arrivals));
      (* serial arrivals must sail through with zero delays *)
      let serial =
        Combin.Interleave.serial fmt (Array.init (Array.length fmt) Fun.id)
      in
      let s =
        Sched.Driver.run (Sched.Sgt.create ~syntax ()) ~fmt ~arrivals:serial
      in
      check_true "serial zero-delay" (Sched.Driver.zero_delay s))
    syntaxes

let prop_random_large =
  (* seeded workloads beyond exhaustive reach: n, m >= 8 *)
  QCheck.Test.make ~count:12 ~name:"SGT = SGT-ref on large seeded workloads"
    QCheck.(make Gen.int)
    (fun seed ->
      let st = Random.State.make [| 0xD1FF; seed |] in
      let n = 8 + Random.State.int st 3 in
      let m = 8 + Random.State.int st 3 in
      let syntax = Sim.Workload.uniform st ~n ~m ~n_vars:6 in
      let fmt = Syntax.format syntax in
      let ok = ref true in
      for _ = 1 to 3 do
        let arrivals = Combin.Interleave.random st fmt in
        let t1 = ref [] and t2 = ref [] in
        let s1 =
          Sched.Driver.run
            (traced t1 (Sched.Sgt.create ~syntax ()))
            ~fmt ~arrivals
        in
        let s2 =
          Sched.Driver.run
            (traced t2 (Sched.Sgt_ref.create ~syntax))
            ~fmt ~arrivals
        in
        ok :=
          !ok && !t1 = !t2 && same_stats s1 s2
          && Conflict.serializable syntax s1.Sched.Driver.output
      done;
      !ok)

(* ---------- DES vs Driver ---------- *)

(* instantaneous arrivals in index order + scheduling that dominates
   execution: the DES serves requests round-robin, matching this
   arrival sequence for the untimed driver *)
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

let des_params =
  { Sim.Des.arrival_rate = 1e6; exec_time = 0.001; sched_time = 1.; seed = 1 }

let des syntax mk = Sim.Des.run des_params ~syntax ~scheduler:mk

let driver syntax mk =
  let fmt = Syntax.format syntax in
  Sched.Driver.run (mk ()) ~fmt ~arrivals:(round_robin fmt)

let test_des_driver_corpus () =
  (* fixed corpus: both SGT implementations agree exactly with the
     driver on aborts and deadlocks; 2PL agrees on the cases where its
     eager wait-for-cycle detection fires exactly when the lazy driver
     stalls *)
  let cases =
    [
      Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ];
      Syntax.of_lists [ [ "x"; "y"; "z" ]; [ "z"; "x" ]; [ "y"; "z" ] ];
      Syntax.of_lists [ [ "x"; "x" ]; [ "x"; "x" ]; [ "x"; "x" ] ];
      (let st = Random.State.make [| 7 |] in
       Sim.Workload.uniform st ~n:4 ~m:4 ~n_vars:3);
      (let st = Random.State.make [| 8 |] in
       Sim.Workload.uniform st ~n:6 ~m:5 ~n_vars:4);
    ]
  in
  List.iter
    (fun syntax ->
      List.iter
        (fun mk ->
          let d = des syntax mk in
          let s = driver syntax mk in
          check_int "restarts agree" s.Sched.Driver.restarts
            d.Sim.Des.restarts;
          check_int "deadlocks agree" s.Sched.Driver.deadlocks
            d.Sim.Des.deadlocks)
        [
          (fun () -> Sched.Sgt.create ~syntax ());
          (fun () -> Sched.Sgt_ref.create ~syntax);
        ])
    cases;
  (* low-contention 2PL cases resolve identically under eager and lazy
     victim selection *)
  List.iter
    (fun syntax ->
      let mk () = Sched.Tpl_sched.create_2pl ~syntax () in
      let d = des syntax mk in
      let s = driver syntax mk in
      check_int "2PL restarts agree" s.Sched.Driver.restarts
        d.Sim.Des.restarts)
    [
      Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ];
      Syntax.of_lists [ [ "x"; "y"; "z" ]; [ "z"; "x" ]; [ "y"; "z" ] ];
      Syntax.of_lists [ [ "x"; "x" ]; [ "x"; "x" ]; [ "x"; "x" ] ];
    ]

let test_des_driver_sweep () =
  (* deterministic sweep: SGT within one abort of the driver everywhere
     (service order inside a scheduling round can differ), SGT = SGT-ref
     inside the DES, and the thrash regression stays dead — before the
     fix a contended 6x5 workload burned 13457 restarts where the
     driver pays 5 *)
  for seed = 0 to 99 do
    let st = Random.State.make [| seed |] in
    let n = 2 + Random.State.int st 6 in
    let m = 2 + Random.State.int st 5 in
    let n_vars = 2 + Random.State.int st 4 in
    let syntax = Sim.Workload.uniform st ~n ~m ~n_vars in
    let d = des syntax (fun () -> Sched.Sgt.create ~syntax ()) in
    let dref = des syntax (fun () -> Sched.Sgt_ref.create ~syntax) in
    let s = driver syntax (fun () -> Sched.Sgt.create ~syntax ()) in
    check_int "SGT = SGT-ref restarts in DES" dref.Sim.Des.restarts
      d.Sim.Des.restarts;
    check_int "SGT = SGT-ref deadlocks in DES" dref.Sim.Des.deadlocks
      d.Sim.Des.deadlocks;
    check_true "SGT within one abort of driver"
      (abs (d.Sim.Des.restarts - s.Sched.Driver.restarts) <= 1);
    check_true "SGT restarts bounded" (d.Sim.Des.restarts <= n + m);
    let dtpl = des syntax (fun () -> Sched.Tpl_sched.create_2pl ~syntax ()) in
    check_true "2PL restarts bounded" (dtpl.Sim.Des.restarts <= 8 * n)
  done

(* ---------- Intq ---------- *)

let test_intq () =
  let q = Sched.Intq.create 6 in
  check_true "empty" (Sched.Intq.is_empty q);
  check_int "head of empty" (-1) (Sched.Intq.head q);
  Sched.Intq.push q 3;
  Sched.Intq.push q 1;
  Sched.Intq.push q 4;
  Sched.Intq.push q 1;
  (* duplicate: no-op *)
  check_int "length" 3 (Sched.Intq.length q);
  check_true "fifo" (Sched.Intq.to_list q = [ 3; 1; 4 ]);
  (* cursor walk agrees with to_list *)
  let rec walk i acc =
    if i < 0 then List.rev acc else walk (Sched.Intq.next q i) (i :: acc)
  in
  check_true "cursor walk" (walk (Sched.Intq.head q) [] = [ 3; 1; 4 ]);
  Sched.Intq.remove q 1;
  check_true "inner removal" (Sched.Intq.to_list q = [ 3; 4 ]);
  Sched.Intq.remove q 3;
  check_int "head after head removal" 4 (Sched.Intq.head q);
  Sched.Intq.remove q 5;
  (* absent: no-op *)
  Sched.Intq.push q 3;
  check_true "reinsert goes to tail" (Sched.Intq.to_list q = [ 4; 3 ]);
  check_true "mem" (Sched.Intq.mem q 4 && not (Sched.Intq.mem q 1));
  Sched.Intq.remove q 4;
  Sched.Intq.remove q 3;
  check_true "drained" (Sched.Intq.is_empty q);
  check_int "peek none" (-1) (Sched.Intq.head q)

let test_intq_random () =
  (* differential against a list model *)
  let st = rng 31 in
  let q = Sched.Intq.create 10 in
  let model = ref [] in
  for _ = 1 to 2000 do
    let x = Random.State.int st 10 in
    if Random.State.bool st then begin
      Sched.Intq.push q x;
      if not (List.mem x !model) then model := !model @ [ x ]
    end
    else begin
      Sched.Intq.remove q x;
      model := List.filter (fun y -> y <> x) !model
    end;
    check_true "model agrees" (Sched.Intq.to_list q = !model)
  done

let suite =
  [
    Alcotest.test_case "SGT = SGT-ref exhaustive to size 6" `Slow
      test_exhaustive_small;
    Alcotest.test_case "fixpoint sets agree" `Quick test_fixpoint_sets_agree;
    Alcotest.test_case "repeated-access regression" `Quick
      test_repeated_access_regression;
    Alcotest.test_case "DES vs driver corpus" `Quick test_des_driver_corpus;
    Alcotest.test_case "DES vs driver sweep" `Slow test_des_driver_sweep;
    Alcotest.test_case "intq basics" `Quick test_intq;
    Alcotest.test_case "intq vs list model" `Quick test_intq_random;
  ]
  @ qsuite [ prop_random_large ]
