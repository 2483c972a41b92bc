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
  chrome : string;
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
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema_version\": %d, \"syntax\": \"%s\", \"seed\": %d, \
        \"capacity\": %d, \"samples\": %d, \"schedulers\": ["
       schema_version (Obs.Json.escape spec.label) spec.seed spec.capacity
       spec.samples);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ", ";
      let q p =
        match Obs.Hist.quantile r.wait_hist p with
        | Some v -> string_of_int v
        | None -> "null"
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\": \"%s\", \"slug\": \"%s\", \"zero_delay_fraction\": \
            %.4f, \"grants\": %d, \"delays\": %d, \"restarts\": %d, \
            \"deadlocks\": %d, \"waiting\": %d, \"zero_delay\": %b, \
            \"spans\": {\"scheduling\": %.1f, \"waiting\": %.1f, \
            \"execution\": %.1f, \"elapsed\": %.1f}, \"wait\": {\"count\": \
            %d, \"mean\": %.3f, \"p50\": %s, \"p99\": %s}, \"events\": %d, \
            \"dropped\": %d, \"trace_matches_stats\": %b}"
           (Obs.Json.escape r.name) (Obs.Json.escape r.slug) r.zero_delay_fraction
           r.stats.Sched.Driver.grants r.stats.Sched.Driver.delays
           r.stats.Sched.Driver.restarts r.stats.Sched.Driver.deadlocks
           r.stats.Sched.Driver.waiting
           (Sched.Driver.zero_delay r.stats)
           r.totals.Obs.Span.scheduling r.totals.Obs.Span.waiting
           r.totals.Obs.Span.execution r.totals.Obs.Span.elapsed
           (Obs.Hist.count r.wait_hist)
           (Obs.Hist.mean r.wait_hist)
           (q 0.5) (q 0.99) (List.length r.events) r.dropped
           (mismatches r = [])))
    runs;
  Buffer.add_string b "]}";
  Buffer.contents b
