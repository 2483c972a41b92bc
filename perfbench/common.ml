(* What the end-to-end and the traced run share: the run configuration,
   the engines, set-up, verification, and the result line. *)

open Core
module Checker = Analysis.Checker
module History = Analysis.History
module Driver = Sched.Driver

let now = Spans.now

(* set from the command line *)
let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let nproc = ref 0

(* ---------- failures ---------- *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      if List.length !failures < 20 then failures := m :: !failures)
    fmt

(* ---------- engines ---------- *)

type outcome = { output : Schedule.t; aborts : int array }

type engine = {
  key : string;  (** metric prefix *)
  level : Checker.level option;
      (** declared level its committed schedules are checked at; [None]
          where another check covers the engine: SSI is checked on its
          version events, the ring-traced SGT by equality with SGT *)
  run : Gen.stream -> outcome;
}

let of_stats (s : Driver.stats) = { output = s.output; aborts = s.aborts }

let registry name = Sched.Registry.find_exn name

let level_of (e : Sched.Registry.entry) =
  Option.get (Checker.level_of_name e.Sched.Registry.level)

(* metric prefix -> registry entry of the five engines that
   [Driver.run] drives one stream at a time *)
let registry_names =
  [
    ("sgt", "SGT");
    ("semantic", "semantic");
    ("2pl", "2PL");
    ("ssi", "SSI");
    ("sharded", "sharded");
  ]

let driven (key, name) =
  let e = registry name in
  {
    key;
    level = (if key = "ssi" then None else Some (level_of e));
    run =
      (fun s ->
        of_stats
          (Driver.run (e.Sched.Registry.make s.Gen.syntax) ~fmt:s.Gen.fmt
             ~arrivals:s.Gen.arrivals));
  }

let drivers = List.map driven registry_names

let parallel_report (s : Gen.stream) =
  Sched.Parallel.run ~queue:Sched.Chan.Ring ~domains:2 ~shards:4
    ~syntax:s.Gen.syntax ~arrivals:s.Gen.arrivals ()

let parallel =
  {
    key = "parallel";
    level = Some (level_of (registry "sharded"));
    run =
      (fun s ->
        let r = parallel_report s in
        { output = r.Sched.Parallel.output; aborts = r.Sched.Parallel.aborts });
  }

(* SGT with an enabled ring sink on both the engine and the driver *)
let ring = Obs.Sink.Ring.create ~capacity:(1 lsl 16)
let ring_sink = Obs.Sink.Ring.sink ring

let sgt_ring =
  {
    key = "sgt.traced";
    level = None;
    run =
      (fun s ->
        Obs.Sink.Ring.clear ring;
        ring_sink.Obs.Sink.now <- 0.;
        let sink = ring_sink in
        of_stats
          (Driver.run ~sink
             (Sched.Sgt.create ~sink ~syntax:s.Gen.syntax ())
             ~fmt:s.Gen.fmt ~arrivals:s.Gen.arrivals));
  }

(* the engines the end-to-end run times; [parallel] is timed only in the
   traced run, see README.md *)
let engines = drivers @ [ sgt_ring ]

(* One run of one engine on one stream; a stall is a failed run. *)
let attempt (e : engine) (s : Gen.stream) =
  incr attempted;
  match e.run s with
  | o -> Some o
  | exception Driver.Stall m ->
    fail "%s: stall: %s" e.key m;
    None

let sweep (e : engine) (w : Gen.t) = Array.map (attempt e) w.Gen.streams

(* ---------- verification ---------- *)

let conforms h level =
  match (Checker.check h level).Checker.verdict with
  | Checker.Consistent _ -> true
  | Checker.Violation _ | Checker.Unknown _ -> false

(* Every SGT history through the whole rc -> ser ladder; the checker
   pass of the benchmark times exactly this. *)
let check_ladder hs =
  Array.for_all (fun h -> List.for_all (conforms h) Checker.levels) hs

let histories (w : Gen.t) (outs : outcome option array) =
  Array.mapi
    (fun k o ->
      let s = w.Gen.streams.(k) in
      History.of_schedule s.Gen.syntax
        (match o with Some o -> o.output | None -> [||]))
    outs

(* The commute-filtered conflict graph of a committed schedule: edges
   between non-commuting accesses of one variable, earlier to later.
   A topological order is a serial order that, if Herbrand-equivalent
   to the schedule, proves it serializable under the declared
   commutativity. *)
let commute_serial_order syntax (out : Schedule.t) =
  let n = Syntax.n_transactions syntax in
  let g = Digraph.Acyclic.create n in
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  Array.iter
    (fun (id : Names.step_id) ->
      let v = Syntax.var syntax id and op = Syntax.kind syntax id in
      let prev = Option.value ~default:[] (Hashtbl.find_opt seen v) in
      List.iter
        (fun (u, o) ->
          if u <> id.Names.tx && Commute.conflicts o op then
            match Digraph.Acyclic.add_edge_acyclic g u id.Names.tx with
            | Ok () -> ()
            | Error _ -> ok := false)
        prev;
      Hashtbl.replace seen v ((id.Names.tx, op) :: prev))
    out;
  if !ok then Some (Digraph.Acyclic.topological_order g) else None

let semantic_serializable (s : Gen.stream) out =
  match commute_serial_order s.Gen.syntax out with
  | None -> false
  | Some order ->
    Herbrand.equivalent s.Gen.syntax out (Schedule.serial s.Gen.fmt order)

(* SSI is checked on the values its snapshots actually served, recovered
   from the version events of a recorded run. *)
let ssi_conforms (s : Gen.stream) ref_out =
  let e = registry "SSI" in
  let c = Obs.Sink.Memory.create () in
  let sink = Obs.Sink.Memory.sink c in
  incr attempted;
  match
    Driver.run ~sink (e.Sched.Registry.make ~sink s.Gen.syntax) ~fmt:s.Gen.fmt
      ~arrivals:s.Gen.arrivals
  with
  | exception Driver.Stall m ->
    fail "ssi (recorded): stall: %s" m;
    false
  | st ->
    let h =
      Sim.Check_fuzz.history_of_events ~label:"ssi" s.Gen.syntax
        (Obs.Sink.Memory.events c)
    in
    Schedule.equal st.Driver.output ref_out && conforms h (level_of e)

type refs = {
  w : Gen.t;
  outs : (string * outcome option array) list;  (** per engine key *)
  hists : History.t array;  (** SGT's committed histories *)
  ladder_ok : bool;  (** every history passed the whole checker ladder *)
}

let outs_of refs key = List.assoc key refs.outs

(* Every engine is deterministic: a repeated run must reproduce the
   verified reference output exactly. *)
let same_as_refs refs key (got : outcome option array) =
  Array.iteri
    (fun k o ->
      match (o, (outs_of refs key).(k)) with
      | Some o, Some r when Schedule.equal o.output r.output -> ()
      | None, _ -> ()
      | _ -> fail "%s stream %d: run differs from its reference" key k)
    got

(* Outside any timed region: each reference output is a complete, legal
   schedule, conforms at its engine's declared level, and the
   cross-engine identities hold. *)
let verify refs =
  let w = refs.w in
  let streams = w.Gen.streams in
  List.iter
    (fun (e : engine) ->
      Array.iteri
        (fun k o ->
          let s = streams.(k) in
          match o with
          | None -> ()
          | Some o ->
            if
              Array.length o.output <> s.Gen.steps
              || not (Schedule.is_schedule_of s.Gen.fmt o.output)
            then fail "%s stream %d: output is not a schedule of the format" e.key k
            else begin
              match e.level with
              | None -> ()
              | Some level ->
                if e.key = "semantic" && Syntax.typed s.Gen.syntax then begin
                  (* the checker's rw projection of counter bumps is
                     sound but incomplete on observed counters, so the
                     typed engine is checked against its own exact
                     oracle *)
                  if not (semantic_serializable s o.output) then
                    fail "semantic stream %d: not commutative-serializable" k
                end
                else if
                  not (conforms (History.of_schedule s.Gen.syntax o.output) level)
                then
                  fail "%s stream %d: fails the checker at %s" e.key k
                    (Checker.level_name level)
            end)
        (outs_of refs e.key))
    (parallel :: engines);
  let pairs a b f =
    Array.iteri
      (fun k x ->
        match (x, (outs_of refs b).(k)) with
        | Some x, Some y -> f k x y
        | _ -> ())
      (outs_of refs a)
  in
  pairs "semantic" "sgt" (fun k x y ->
      if
        (not (Syntax.typed streams.(k).Gen.syntax))
        && not (Schedule.equal x.output y.output && x.aborts = y.aborts)
      then fail "stream %d: semantic differs from sgt on untyped syntax" k);
  pairs "parallel" "sharded" (fun k x y ->
      if x.aborts <> y.aborts then
        fail "stream %d: parallel aborts differ from sharded" k);
  pairs "sgt.traced" "sgt" (fun k x y ->
      if not (Schedule.equal x.output y.output) then
        fail "stream %d: traced sgt differs from sgt" k);
  Array.iteri
    (fun k o ->
      match o with
      | Some o when not (ssi_conforms streams.(k) o.output) ->
        fail "ssi stream %d: recorded history fails its declared level" k
      | _ -> ())
    (outs_of refs "ssi");
  attempted := !attempted + Array.length refs.hists;
  if not refs.ladder_ok then fail "an sgt history fails the checker ladder"

(* ---------- set-up ---------- *)

(* Workload generation plus one warm-up pass of every engine and of the
   checker; the outputs become the references every timed run must
   reproduce. *)
let setup () =
  let w = Gen.generate !workload ~seed:!seed in
  let outs = List.map (fun (e : engine) -> (e.key, sweep e w)) engines in
  let hists = histories w (List.assoc "sgt" outs) in
  { w; outs; hists; ladder_ok = check_ladder hists }

(* [parallel]'s reference outputs, made outside the timed set-up: its
   per-run domain spawn is the figure the host disturbs most *)
let with_parallel refs =
  { refs with outs = (parallel.key, sweep parallel refs.w) :: refs.outs }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let setups = 3

(* Set up [setups] times; the median is [setup_s]. Every repetition
   must reproduce the first one's outputs exactly. *)
let timed_setup () =
  let times = ref [] and last = ref None in
  for _ = 1 to setups do
    Gc.compact ();
    let t0 = now () in
    let r = setup () in
    times := float_of_int (now () - t0) /. 1e9 :: !times;
    (match !last with
    | Some prev ->
      List.iter
        (fun (key, outs) ->
          if outs <> outs_of prev key then
            fail "%s: set-up repetitions disagree" key)
        r.outs
    | None -> ());
    last := Some r
  done;
  (Option.get !last, median !times)

(* ---------- timing ---------- *)

(* A sample keeps sweeping until this much time is measured, so one
   sample of a fast engine is not one clock-granularity blip. *)
let min_sample_ns = 20_000_000

(* A timed pass: [sweep_once] runs every stream once and returns the
   work done; [check] compares what the sweep produced with the
   references, outside the timed interval. *)
type pass = {
  metric : string;
  unit_name : string;
  sweep_once : unit -> int;
  check : unit -> unit;
  mutable rates : float list;
}

let sample p =
  (* finish the collection cycle earlier passes left behind, so each
     pass pays for its own garbage only *)
  Gc.major ();
  let work = ref 0 and ns = ref 0 in
  while !ns < min_sample_ns do
    let t0 = now () in
    work := !work + p.sweep_once ();
    ns := !ns + (now () - t0);
    p.check ()
  done;
  p.rates <- float_of_int !work /. (float_of_int !ns /. 1e9) :: p.rates

(* ---------- host speed ---------- *)

(* The host's speed drifts by up to 1.8x over minutes (see README), and
   every timing drifts with it. Each run therefore also times this loop,
   which shares no code with the engines, interleaved with them, and
   reports every time at the reference speed: a throughput is divided
   and a duration multiplied by [host_speed]. *)
let calibration_loop () =
  let acc = ref 0 in
  for _ = 1 to 20 do
    let l = List.init 1000 (fun i -> i * 7) in
    let h = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace h (x land 255) x) l;
    let a = Array.init 1000 (fun i -> (i * 7919) land 1023) in
    Array.sort compare a;
    acc := !acc + Hashtbl.length h + List.fold_left ( + ) 0 l + a.(500)
  done;
  ignore (Sys.opaque_identity !acc);
  20_000

(* calibration-loop units per second on the reference host, uncontended *)
let reference_rate = 4.0e6

let calibration_pass () =
  {
    metric = "calibration";
    unit_name = "units/s";
    sweep_once = calibration_loop;
    check = ignore;
    rates = [];
  }

(* this run's median calibration rate over the reference rate *)
let host_speed = ref 1.0

let set_host_speed p =
  host_speed := median p.rates /. reference_rate;
  !host_speed

(* Interleaved rounds (one measurement of everything per round) until
   the time budget is spent, so drift of the host hits every metric
   alike. *)
let rounds ~budget_ns f =
  let deadline = now () + budget_ns in
  f ();
  while now () < deadline do
    f ()
  done

(* ---------- metric output ---------- *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metrics : metric list ref = ref []

let emit ?(samples = 1) name unit_ value =
  let value = if Float.is_finite value then value else 0. in
  metrics := { name; unit_; value; samples } :: !metrics

let json_string s = Printf.sprintf "%S" s

let finish () =
  let ms = List.rev !metrics in
  List.iter
    (fun m ->
      Printf.printf "%-42s %18.6f %-12s (n=%d)\n" m.name m.value m.unit_
        m.samples)
    ms;
  List.iter (fun m -> Printf.eprintf "FAIL %s\n" m) (List.rev !failures);
  let host =
    String.concat ", "
      [
        Printf.sprintf "\"workload\": %s" (json_string !workload);
        Printf.sprintf "\"seed\": %d" !seed;
        Printf.sprintf "\"seconds\": %d" !seconds;
        Printf.sprintf "\"trace\": %d" !trace;
        Printf.sprintf "\"nproc\": %d" !nproc;
        Printf.sprintf "\"recommended_domains\": %d"
          (Domain.recommended_domain_count ());
        Printf.sprintf "\"ocaml\": %s" (json_string Sys.ocaml_version);
        Printf.sprintf "\"host_speed\": %.4f" !host_speed;
        Printf.sprintf "\"samples\": {%s}"
          (String.concat ", "
             (List.map
                (fun m -> Printf.sprintf "%s: %d" (json_string m.name) m.samples)
                ms));
      ]
  in
  Printf.printf "{\"host\": {%s}}\n" host;
  let correct = !failed = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
              (json_string m.name) m.value (json_string m.unit_))
          ms));
  exit (if correct then 0 else 1)
