module History = Analysis.History
module Checker = Analysis.Checker

type spec = {
  txns : int;
  steps : int;
  sessions : int;
  n_vars : int;
  seed : int;
  levels : Checker.level list;
}

type row = {
  level : string;
  events : int;
  seconds : float;
  events_per_sec : float;
}

let default =
  {
    txns = 125_000;
    steps = 4;
    sessions = 8;
    n_vars = 40_000;
    seed = 1;
    levels = Checker.levels;
  }

let smoke = { default with txns = 2_000; steps = 2; n_vars = 500 }

let parse_dims s base =
  match List.map int_of_string_opt (String.split_on_char 'x' s) with
  | [ Some n; Some m; Some sess; Some v ]
    when n > 0 && m > 0 && sess > 0 && v > 0 ->
    { base with txns = n; steps = m; sessions = sess; n_vars = v }
  | _ -> invalid_arg ("bad --bench size " ^ s ^ " (want NxMxSxV)")

let run spec =
  let h =
    History.generate ~seed:spec.seed ~sessions:spec.sessions ~txns:spec.txns
      ~steps:spec.steps ~n_vars:spec.n_vars
  in
  let events = History.n_events h in
  List.filter_map
    (fun level ->
      if not (List.mem level spec.levels) then None
      else begin
        let t0 = Unix.gettimeofday () in
        let r = Checker.check h level in
        let seconds = Unix.gettimeofday () -. t0 in
        (match r.Checker.verdict with
        | Checker.Consistent _ -> ()
        | Checker.Violation _ ->
          failwith
            ("check bench: generated history rejected at "
            ^ Checker.level_name level)
        | Checker.Unknown msg ->
          failwith
            ("check bench: generated history unknown at "
            ^ Checker.level_name level ^ ": " ^ msg));
        Some
          {
            level = Checker.level_name level;
            events;
            seconds;
            events_per_sec =
              (if seconds > 0. then float_of_int events /. seconds else 0.);
          }
      end)
    Checker.levels

let to_json spec rows =
  Obs.Json.(
    Object
      [
        ("schema_version", Int Analysis.Report.schema_version);
        ("benchmark", String "ccopt check throughput");
        ("unit", String "events/sec");
        ( "config",
          Object
            [
              ("txns", Int spec.txns);
              ("steps", Int spec.steps);
              ("sessions", Int spec.sessions);
              ("n_vars", Int spec.n_vars);
              ("seed", Int spec.seed);
            ] );
        ( "results",
          Array
            (List.map
               (fun r ->
                 Object
                   [
                     ("level", String r.level);
                     ("events", Int r.events);
                     ("seconds", fixed 3 r.seconds);
                     ("events_per_sec", fixed 0 r.events_per_sec);
                   ])
               rows) );
      ])

let pp_rows fmt rows =
  Format.fprintf fmt "%-8s %12s %9s %14s@." "level" "events" "seconds"
    "events/sec";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-8s %12d %9.3f %14.0f@." r.level r.events
        r.seconds r.events_per_sec)
    rows
