open Core

type spec = {
  label : string;
  syntax : Syntax.t;
  seed : int;
  capacity : int;
  samples : int;
  only : string list;
}

let default_capacity = 1 lsl 16

type run = {
  name : string;
  slug : string;
  n : int;
  stats : Sched.Driver.stats;
  events : (float * Obs.Event.t) list;
  dropped : int;
  counters : Obs.Fold.counters;
  totals : Obs.Span.breakdown;
  wait_hist : Obs.Hist.t;
  zero_delay_fraction : float;
  chrome : Obs.Json.t;
}

let slug_of_name = Sched.Registry.slug_of_name

(* Any registered scheduler round-trips through [only], not just the
   standard suite: the registry is the single name table. *)
let select spec =
  match spec.only with
  | [] -> Sched.Registry.standard
  | only -> List.map Sched.Registry.find_exn only

let execute spec =
  let fmt = Syntax.format spec.syntax in
  let n = Array.length fmt in
  let st = Random.State.make [| spec.seed |] in
  let arrivals = Combin.Interleave.random st fmt in
  List.map
    (fun e ->
      let ring = Obs.Sink.Ring.create ~capacity:spec.capacity in
      let sink = Obs.Sink.Ring.sink ring in
      let stats =
        Sched.Driver.run ~sink
          (e.Sched.Registry.make ~sink spec.syntax)
          ~fmt ~arrivals
      in
      let events = Obs.Sink.Ring.events ring in
      let dropped = Obs.Sink.Ring.dropped ring in
      let counters = Obs.Fold.counters events in
      let totals = Obs.Span.totals (Obs.Fold.spans ~n events) in
      let wait_hist = Obs.Fold.wait_histogram events in
      let zero_delay_fraction =
        Sched.Driver.zero_delay_fraction
          (fun () -> e.Sched.Registry.make spec.syntax)
          ~fmt ~samples:spec.samples ~seed:spec.seed
      in
      let chrome = Obs.Trace_export.chrome events in
      {
        name = e.Sched.Registry.name;
        slug = e.Sched.Registry.slug;
        n;
        stats;
        events;
        dropped;
        counters;
        totals;
        wait_hist;
        zero_delay_fraction;
        chrome;
      })
    (select spec)

let mismatches r =
  if r.dropped > 0 then []
  else begin
    let s = r.stats and c = r.counters in
    let check label trace stat acc =
      if trace = stat then acc
      else Printf.sprintf "%s: trace %d vs stats %d" label trace stat :: acc
    in
    []
    |> check "grants" c.Obs.Fold.grants s.Sched.Driver.grants
    |> check "delays" c.Obs.Fold.delays s.Sched.Driver.delays
    |> check "restarts" c.Obs.Fold.restarts s.Sched.Driver.restarts
    |> check "deadlocks" c.Obs.Fold.deadlocks s.Sched.Driver.deadlocks
    |> check "waiting" c.Obs.Fold.waiting s.Sched.Driver.waiting
    |> check "commits" c.Obs.Fold.commits r.n
    |> (fun acc ->
         if Obs.Fold.zero_delay c = Sched.Driver.zero_delay s then acc
         else "zero-delay: trace and stats disagree" :: acc)
    |> List.rev
  end

let pp_summary ppf runs =
  Format.fprintf ppf "%-8s %8s %6s %6s %8s %9s %7s %7s %6s %6s %7s@."
    "sched" "zero-dly" "grants" "delays" "restarts" "deadlocks" "waiting"
    "t-sched" "t-wait" "t-exec" "elapsed";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-8s %8.3f %6d %6d %8d %9d %7d %7.0f %6.0f %6.0f %7.0f@." r.name
        r.zero_delay_fraction r.stats.Sched.Driver.grants
        r.stats.Sched.Driver.delays r.stats.Sched.Driver.restarts
        r.stats.Sched.Driver.deadlocks r.stats.Sched.Driver.waiting
        r.totals.Obs.Span.scheduling r.totals.Obs.Span.waiting
        r.totals.Obs.Span.execution r.totals.Obs.Span.elapsed)
    runs;
  List.iter
    (fun r ->
      Format.fprintf ppf "wait %-8s %a@." r.name Obs.Hist.pp r.wait_hist)
    runs

(* One version stamp across every machine-readable report. *)
let schema_version = Analysis.Report.schema_version

let json_summary spec runs =
  let scheduler r =
    let s = r.stats and t = r.totals in
    let q p =
      match Obs.Hist.quantile r.wait_hist p with
      | Some v -> Obs.Json.Int v
      | None -> Obs.Json.Null
    in
    Obs.Json.(
      Object
        [
          ("name", String r.name);
          ("slug", String r.slug);
          ("zero_delay_fraction", fixed 4 r.zero_delay_fraction);
          ("grants", Int s.Sched.Driver.grants);
          ("delays", Int s.Sched.Driver.delays);
          ("restarts", Int s.Sched.Driver.restarts);
          ("deadlocks", Int s.Sched.Driver.deadlocks);
          ("waiting", Int s.Sched.Driver.waiting);
          ("zero_delay", Bool (Sched.Driver.zero_delay s));
          ( "spans",
            Object
              [
                ("scheduling", fixed 1 t.Obs.Span.scheduling);
                ("waiting", fixed 1 t.Obs.Span.waiting);
                ("execution", fixed 1 t.Obs.Span.execution);
                ("elapsed", fixed 1 t.Obs.Span.elapsed);
              ] );
          ( "wait",
            Object
              [
                ("count", Int (Obs.Hist.count r.wait_hist));
                ("mean", fixed 3 (Obs.Hist.mean r.wait_hist));
                ("p50", q 0.5);
                ("p99", q 0.99);
              ] );
          ("events", Int (List.length r.events));
          ("dropped", Int r.dropped);
          ("trace_matches_stats", Bool (mismatches r = []));
        ])
  in
  Obs.Json.(
    Object
      [
        ("schema_version", Int schema_version);
        ("syntax", String spec.label);
        ("seed", Int spec.seed);
        ("capacity", Int spec.capacity);
        ("samples", Int spec.samples);
        ("schedulers", Array (List.map scheduler runs));
      ])
