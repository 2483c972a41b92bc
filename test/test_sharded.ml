(* Differential and soundness tests for the sharded scheduling engine.

   The contract ([Sched.Sharded]): with one shard — or on any workload
   where every transaction is single-shard — the engine must be
   decision-for-decision identical to the monolithic [Sched.Sgt] it
   decomposes; with genuine cross-shard traffic it may only be more
   conservative, and everything it outputs must stay (conflict-)
   serializable, which is the whole point of serialization graph
   testing. *)

open Util
open Core

let same_stats (a : Sched.Driver.stats) (b : Sched.Driver.stats) =
  Schedule.equal a.Sched.Driver.output b.Sched.Driver.output
  && a.Sched.Driver.delays = b.Sched.Driver.delays
  && a.Sched.Driver.restarts = b.Sched.Driver.restarts
  && a.Sched.Driver.deadlocks = b.Sched.Driver.deadlocks
  && a.Sched.Driver.grants = b.Sched.Driver.grants

let check_equiv ~shards syntax arrivals =
  let fmt = Syntax.format syntax in
  let t1 = ref [] and t2 = ref [] in
  let s1 =
    Sched.Driver.run
      (traced t1 (Sched.Sharded.create ~shards ~syntax ()))
      ~fmt ~arrivals
  in
  let s2 =
    Sched.Driver.run (traced t2 (Sched.Sgt.create ~syntax ())) ~fmt ~arrivals
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

let syntax_of_fmt ~n_vars ~seed fmt =
  let st = rng seed in
  Syntax.make
    (Array.map
       (fun m ->
         Array.init m (fun _ -> var_names.(Random.State.int st n_vars)))
       fmt)

(* ---------- partition ---------- *)

let test_partition () =
  let syntax =
    Syntax.of_lists [ [ "x"; "y" ]; [ "y" ]; [ "z"; "z" ]; [] ]
  in
  let p = Sched.Partition.make ~syntax ~shards:4 in
  check_int "n" 4 p.Sched.Partition.n;
  (* the hash is deterministic: recompute and compare every step *)
  List.iter
    (fun ({ Names.tx; idx } as id) ->
      check_int "step shard"
        (Sched.Partition.shard_of_var ~shards:4 (Syntax.var syntax id))
        p.Sched.Partition.shard_of_step.(tx).(idx))
    (Syntax.steps syntax);
  (* T0 touches x and y; T1 only y: T1's mask is a subset of T0's *)
  check_true "mask subset"
    (p.Sched.Partition.mask.(1) land p.Sched.Partition.mask.(0)
    = p.Sched.Partition.mask.(1));
  (* single-shard transactions have a home; empty transactions do not *)
  check_int "empty tx mask" 0 p.Sched.Partition.mask.(3);
  check_int "empty tx home" (-1) p.Sched.Partition.home.(3);
  check_true "T1 single-shard"
    ((not p.Sched.Partition.cross.(1)) && p.Sched.Partition.home.(1) >= 0);
  check_true "T2 single-shard (one variable twice)"
    ((not p.Sched.Partition.cross.(2)) && p.Sched.Partition.home.(2) >= 0);
  (* members lists are ascending and agree with local_id *)
  Array.iteri
    (fun s ms ->
      Array.iteri
        (fun l tx ->
          check_int "local id round-trip" l p.Sched.Partition.local_id.(s).(tx);
          if l > 0 then check_true "members ascending" (ms.(l - 1) < tx))
        ms)
    p.Sched.Partition.members;
  (* cross ids are dense over the cross transactions *)
  let crosses =
    Array.to_list p.Sched.Partition.cross
    |> List.filter (fun c -> c)
    |> List.length
  in
  check_int "n_cross" crosses p.Sched.Partition.n_cross;
  check_true "K bounds enforced"
    ((try
        ignore (Sched.Partition.make ~syntax ~shards:0);
        false
      with Invalid_argument _ -> true)
    &&
    try
      ignore (Sched.Partition.make ~syntax ~shards:63);
      false
    with Invalid_argument _ -> true);
  (* K = 1: everything is single-shard *)
  let p1 = Sched.Partition.make ~syntax ~shards:1 in
  check_int "K=1 no cross" 0 p1.Sched.Partition.n_cross;
  check_true "K=1 cross fraction" (Sched.Partition.cross_fraction p1 = 0.)

(* ---------- K = 1 and all-single-shard equivalence ---------- *)

let test_k1_exhaustive () =
  (* all formats up to total size 5, all interleavings: with one shard
     the engine must be indistinguishable from the monolithic SGT *)
  for total = 2 to 5 do
    List.iter
      (fun fmt ->
        List.iter
          (fun (n_vars, seed) ->
            let syntax = syntax_of_fmt ~n_vars ~seed fmt in
            Combin.Interleave.iter fmt (fun arrivals ->
                check_equiv ~shards:1 syntax (Array.copy arrivals)))
          [ (2, 17); (3, 23) ])
      (compositions total)
  done

let test_disjoint_any_k () =
  (* [Workload.disjoint] gives every transaction a single private
     variable, so no transaction is ever cross-shard and every K must
     reproduce SGT exactly *)
  let syntax = Sim.Workload.disjoint ~n:6 ~m:3 in
  let p = Sched.Partition.make ~syntax ~shards:4 in
  check_int "disjoint has no cross txs" 0 p.Sched.Partition.n_cross;
  let fmt = Syntax.format syntax in
  let st = rng 5 in
  for _ = 1 to 25 do
    let arrivals = Combin.Interleave.random st fmt in
    List.iter (fun k -> check_equiv ~shards:k syntax arrivals) [ 1; 2; 4; 8 ]
  done

let test_k1_fixpoints () =
  (* Theorem 3's fixpoint characterisation survives the decomposition *)
  List.iter
    (fun syntax ->
      let fmt = Syntax.format syntax in
      let fp_sh =
        Sched.Driver.fixpoint_of
          (fun () -> Sched.Sharded.create ~shards:1 ~syntax ())
          fmt
      in
      let fp_sgt =
        Sched.Driver.fixpoint_of (fun () -> Sched.Sgt.create ~syntax ()) fmt
      in
      check_int "fixpoint set size" (List.length fp_sgt) (List.length fp_sh);
      List.iter2
        (fun a b -> check_true "fixpoint schedule" (Schedule.equal a b))
        fp_sh fp_sgt)
    [
      Examples.hot_spot 2 2;
      Examples.hot_spot 3 2;
      Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ];
      Syntax.of_lists [ [ "x"; "x"; "y" ]; [ "y"; "x" ] ];
    ]

(* ---------- cross-shard soundness ---------- *)

let test_cross_shard_serializable () =
  (* 100-seed sweep over contended workloads at K in {2,4,8}: the engine
     must terminate and every output must be conflict-serializable (the
     SGT invariant); where n is tiny the Herbrand check must agree *)
  for seed = 0 to 99 do
    let st = Random.State.make [| 0x5AD; seed |] in
    let n = 2 + Random.State.int st 5 in
    let m = 2 + Random.State.int st 4 in
    let n_vars = 2 + Random.State.int st 4 in
    let syntax = Sim.Workload.uniform st ~n ~m ~n_vars in
    let fmt = Syntax.format syntax in
    let arrivals = Combin.Interleave.random st fmt in
    List.iter
      (fun k ->
        (* shrinker-armed: a violating arrival stream is binary-searched
           to a minimal failing prefix and printed with its repro data *)
        check_sweep ~name:"cross-shard serializability"
          ~repro:(fun small ->
            Format.asprintf
              "seed=%d shards=%d syntax=%a arrivals=%s (dune exec \
               test/main.exe -- test sharded)"
              seed k Syntax.pp syntax (pp_arrivals small))
          ~fails:(fun a ->
            let s =
              Sched.Driver.run
                (Sched.Sharded.create ~shards:k ~syntax ())
                ~fmt ~arrivals:(Array.copy a)
            in
            (not (Conflict.serializable syntax s.Sched.Driver.output))
            || (n <= 4
               && not (Herbrand.serializable syntax s.Sched.Driver.output)))
          arrivals)
      [ 2; 4; 8 ]
  done

let test_cross_shard_never_grants_more_cycles () =
  (* hot-spot workloads force cross-shard transactions whenever the two
     hot variables land in different shards; on every interleaving of a
     small instance the sharded output must be serializable and the
     engine at most more conservative than SGT (>= as many delays) *)
  let syntax =
    Syntax.of_lists
      [ [ "x"; "y" ]; [ "y"; "x" ]; [ "x"; "z" ]; [ "z"; "y" ] ]
  in
  let fmt = Syntax.format syntax in
  let st = rng 11 in
  for _ = 1 to 60 do
    let arrivals = Combin.Interleave.random st fmt in
    let sh =
      Sched.Driver.run
        (Sched.Sharded.create ~shards:4 ~syntax ())
        ~fmt ~arrivals:(Array.copy arrivals)
    in
    let sg =
      Sched.Driver.run (Sched.Sgt.create ~syntax ()) ~fmt
        ~arrivals:(Array.copy arrivals)
    in
    check_true "sharded output serializable"
      (Conflict.serializable syntax sh.Sched.Driver.output);
    check_true "at least as conservative as SGT"
      (sh.Sched.Driver.delays + sh.Sched.Driver.restarts
      >= sg.Sched.Driver.delays + sg.Sched.Driver.restarts)
  done

(* ---------- observability ---------- *)

let test_trace_vs_stats () =
  (* the trace pipeline's fold differential must hold for the sharded
     engine too: every counter recovered from the event stream agrees
     with the driver's statistics, for both a crossing and a contended
     workload *)
  List.iter
    (fun label ->
      let spec =
        {
          Sim.Trace_run.label;
          syntax = Analysis.Analyze.parse_syntax label;
          seed = 42;
          capacity = Sim.Trace_run.default_capacity;
          samples = 20;
          only = [ "sharded" ];
        }
      in
      List.iter
        (fun r ->
          check_true (label ^ " complete trace") (r.Sim.Trace_run.dropped = 0);
          check_true
            (label ^ " trace matches stats")
            (Sim.Trace_run.mismatches r = []))
        (Sim.Trace_run.execute spec))
    [ "xy,yx"; "xyz,zx,yz"; "xx,xx,xx" ]

let test_shard_routed_events () =
  (* a sink sees one Shard_routed per fresh request, tagged with the
     shard the partition assigns *)
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ] in
  let p = Sched.Partition.make ~syntax ~shards:4 in
  let collector = Obs.Sink.Memory.create () in
  let fmt = Syntax.format syntax in
  ignore
    (Sched.Driver.run ~sink:(Obs.Sink.Memory.sink collector)
       (Sched.Sharded.create ~sink:(Obs.Sink.Memory.sink collector) ~shards:4
          ~syntax ())
       ~fmt ~arrivals:[| 0; 1; 0; 1 |]);
  let routed =
    List.filter_map
      (fun (_, e) ->
        match e with
        | Obs.Event.Shard_routed { tx; idx; shard } -> Some (tx, idx, shard)
        | _ -> None)
      (Obs.Sink.Memory.events collector)
  in
  check_true "routed events present" (routed <> []);
  List.iter
    (fun (tx, idx, shard) ->
      check_int "routed to the owning shard"
        p.Sched.Partition.shard_of_step.(tx).(idx)
        shard)
    routed

(* At K=1 every shard edge is an SGT edge: sharded inserts exactly the
   edges SGT does, in the same order, and refuses the same requests. A
   repeat access by the same transaction adds none. *)
let test_k1_same_edges () =
  let graph_events syntax arrivals mk =
    let mem = Obs.Sink.Memory.create () in
    let sink = Obs.Sink.Memory.sink mem in
    ignore
      (Sched.Driver.run ~sink (mk sink) ~fmt:(Syntax.format syntax) ~arrivals);
    List.filter
      (function
        | Obs.Event.Edge_added _ | Obs.Event.Cycle_refused _ -> true
        | _ -> false)
      (List.map snd (Obs.Sink.Memory.events mem))
  in
  pin_streams
    [ ("hot", pin_hot, 20); ("ledger", pin_ledger, 20) ]
    (fun shape seed syntax arrivals ->
      let run = graph_events syntax arrivals in
      let sgt = run (fun sink -> Sched.Sgt.create ~sink ~syntax ()) in
      let sharded =
        run (fun sink -> Sched.Sharded.create ~sink ~shards:1 ~syntax ())
      in
      let name what = Printf.sprintf "%s seed %d: %s" shape seed what in
      check_true (name "edges present") (sgt <> []);
      check_true (name "same Edge_added/Cycle_refused") (sgt = sharded))

let suite =
  [
    Alcotest.test_case "partition invariants" `Quick test_partition;
    Alcotest.test_case "K=1 graph events = SGT's" `Quick test_k1_same_edges;
    Alcotest.test_case "K=1 = SGT exhaustive to size 5" `Slow
      test_k1_exhaustive;
    Alcotest.test_case "disjoint = SGT at every K" `Quick test_disjoint_any_k;
    Alcotest.test_case "K=1 fixpoint sets agree" `Quick test_k1_fixpoints;
    Alcotest.test_case "cross-shard outputs serializable (100 seeds)" `Slow
      test_cross_shard_serializable;
    Alcotest.test_case "cross-shard at most more conservative" `Quick
      test_cross_shard_never_grants_more_cycles;
    Alcotest.test_case "trace matches stats" `Quick test_trace_vs_stats;
    Alcotest.test_case "shard-routed events" `Quick test_shard_routed_events;
  ]
