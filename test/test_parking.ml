(* Decision identity of the parked driver.

   [Sched.Driver] parks a delayed request at the scheduler's wake epoch
   and asks again only once the epoch has moved. By the epoch contract
   a parked request would have been refused, so parking may only change
   how many Delay verdicts are rendered — never a decision. Every
   registered engine runs here twice on the same seeded streams: as
   built, and with its epoch stripped, which makes the driver fall back
   to its own grant-and-restart count and so re-ask every delayed
   request after every grant. Everything but [delays] must agree, and
   [delays] may only shrink. The streams follow the shapes of the
   benchmark's three workloads, scaled down. *)

open Util
open Core

let strip (s : Sched.Scheduler.t) = { s with Sched.Scheduler.epoch = None }

(* 16 x 8 untyped, 80% of steps on one variable *)
let hot st = Sim.Workload.hotspot st ~n:16 ~m:8 ~n_vars:8 ~theta:0.8

(* 64 x 4 over 64 untyped variables in 4 tenant ranges (the sharded
   engine's own hash, so a tenant is a shard at K = 4); with probability
   0.1 one step of a transaction lands in another tenant *)
let tenants =
  let pools = Array.make 4 [] in
  for i = 63 downto 0 do
    let v = Printf.sprintf "v%d" i in
    let s = Sched.Partition.shard_of_var ~shards:4 v in
    pools.(s) <- v :: pools.(s)
  done;
  let pools = Array.map Array.of_list pools in
  fun st ->
    let pick pool = pool.(Random.State.int st (Array.length pool)) in
    Syntax.make
      (Array.init 64 (fun _ ->
           let home = Random.State.int st 4 in
           let cross = Random.State.float st 1.0 < 0.1 in
           let at = Random.State.int st 4 in
           let away = (home + 1 + Random.State.int st 3) mod 4 in
           Array.init 4 (fun j ->
               pick pools.(if cross && j = at then away else home))))

(* 32 x 6 typed accounts: reads beside commuting bumps and
   read-modify-writes, 20% of accesses on a0 *)
let ledger st =
  let account () =
    if Random.State.float st 1.0 < 0.2 then "a0"
    else Printf.sprintf "a%d" (1 + Random.State.int st 15)
  in
  let op () =
    let r = Random.State.float st 1.0 in
    if r < 0.5 then Op.Read
    else if r < 0.8 then if Random.State.bool st then Op.Incr else Op.Decr
    else Op.Update
  in
  Syntax.make_typed
    (Array.init 32 (fun _ -> Array.init 6 (fun _ -> (op (), account ()))))

let workloads = [ ("hot", hot); ("tenants", tenants); ("ledger", ledger) ]
let streams = 4

let same_decisions (a : Sched.Driver.stats) (b : Sched.Driver.stats) =
  let open Sched.Driver in
  Schedule.equal a.output b.output
  && a.aborts = b.aborts && a.restarts = b.restarts
  && a.deadlocks = b.deadlocks && a.grants = b.grants
  && a.waiting = b.waiting

(* A run that raises [Stall] is an outcome too: the re-ask path must
   then stall with the same message. *)
let run_outcome s ~fmt ~arrivals =
  match Sched.Driver.run s ~fmt ~arrivals:(Array.copy arrivals) with
  | st -> Ok st
  | exception Sched.Driver.Stall m -> Error m

let test_decision_identity () =
  (* delay verdicts per engine and workload, summed over streams *)
  let parked = Hashtbl.create 64 and stripped = Hashtbl.create 64 in
  let add tbl k d =
    Hashtbl.replace tbl k (d + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  List.iteri
    (fun w (wname, gen) ->
      let st = rng (100 + w) in
      for k = 1 to streams do
        let syntax = gen st in
        let fmt = Syntax.format syntax in
        let arrivals = Combin.Interleave.random st fmt in
        List.iter
          (fun (e : Sched.Registry.entry) ->
            let what = Printf.sprintf "%s on %s #%d" e.name wname k in
            match
              ( run_outcome (e.make syntax) ~fmt ~arrivals,
                run_outcome (strip (e.make syntax)) ~fmt ~arrivals )
            with
            | Ok p, Ok r ->
              check_true (what ^ ": same decisions") (same_decisions p r);
              check_true
                (Printf.sprintf "%s: delays %d parked <= %d re-asked" what
                   p.Sched.Driver.delays r.Sched.Driver.delays)
                (p.Sched.Driver.delays <= r.Sched.Driver.delays);
              add parked (e.name, wname) p.Sched.Driver.delays;
              add stripped (e.name, wname) r.Sched.Driver.delays
            | Error m, Error m' ->
              Alcotest.(check string) (what ^ ": same stall") m' m
            | Ok _, Error m | Error m, Ok _ ->
              Alcotest.fail (what ^ ": only one path stalled: " ^ m))
          Sched.Registry.all
      done)
    workloads;
  (* the parked path must actually engage where requests wait *)
  List.iter
    (fun name ->
      let p = Hashtbl.find parked (name, "hot")
      and r = Hashtbl.find stripped (name, "hot") in
      check_true
        (Printf.sprintf "%s parks on hot (%d < %d)" name p r)
        (p < r))
    [ "2PL"; "SGT"; "sharded"; "semantic"; "SGT-ref" ]

(* An aborted transaction restarts from its first step, so its old
   Delay verdict no longer applies: the driver clears the park itself
   rather than trust the scheduler to move its epoch. SGT with its
   epoch frozen at 0 still finishes a stall-resolved run — the victim
   is re-asked after its abort — with the re-ask path's decisions. *)
let test_abort_unparks () =
  let syntax = Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ] ] in
  let fmt = Syntax.format syntax in
  let arrivals = [| 0; 1; 1; 0 |] in
  let frozen =
    { (Sched.Sgt.create ~syntax ()) with Sched.Scheduler.epoch = Some (fun () -> 0) }
  in
  let p = Sched.Driver.run frozen ~fmt ~arrivals in
  let r = Sched.Driver.run (strip (Sched.Sgt.create ~syntax ())) ~fmt ~arrivals in
  check_true "frozen epoch: same decisions" (same_decisions p r);
  check_int "one deadlock resolved" 1 p.Sched.Driver.deadlocks

let suite =
  [
    Alcotest.test_case "parked = re-asked on every registry engine" `Quick
      test_decision_identity;
    Alcotest.test_case "an abort clears the park" `Quick test_abort_unparks;
  ]
