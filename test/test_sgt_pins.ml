(* Decision pins for the SGT admission engines: every decision and
   emitted event of [Sched.Sgt], [Sched.Semantic] and [Sched.Sharded]
   (K=4) on seeded streams in the benchmark's three traffic shapes,
   against a golden file.

   One line per (stream, engine): restarts, grants, delay verdicts, the
   MD5 of the committed schedule, three digests of the event trace and
   the per-transaction abort counts. [events=] covers every event in
   order; [noedge=] every event except [Edge_added], so it holds when
   only the order or multiplicity of edge insertions moves; [edgeset=]
   the sorted set of distinct inserted edges. *)

open Util

let engines =
  [
    ("SGT", fun sink syntax -> Sched.Sgt.create ~sink ~syntax ());
    ("semantic", fun sink syntax -> Sched.Semantic.create ~sink ~syntax ());
    ( "sharded",
      fun sink syntax -> Sched.Sharded.create ~sink ~shards:4 ~syntax () );
  ]

let sgt_decisions () =
  let buf = Buffer.create 4096 in
  pin_streams
    [ ("hot", pin_hot, 8); ("tenants", pin_tenants, 4); ("ledger", pin_ledger, 16) ]
    (fun shape seed syntax arrivals ->
      let fmt = Core.Syntax.format syntax in
      List.iter
        (fun (engine, mk) ->
          let mem = Obs.Sink.Memory.create () in
          let sink = Obs.Sink.Memory.sink mem in
          let stats = Sched.Driver.run ~sink (mk sink syntax) ~fmt ~arrivals in
          let events = List.map snd (Obs.Sink.Memory.events mem) in
          let edges =
            List.filter_map
              (function
                | Obs.Event.Edge_added { src; dst } -> Some (src, dst) | _ -> None)
              events
          in
          Printf.bprintf buf
            "%s seed=%d %s restarts=%d grants=%d delays=%d output=%s events=%s \
             noedge=%s edgeset=%s aborts=%s\n"
            shape seed engine stats.Sched.Driver.restarts
            stats.Sched.Driver.grants stats.Sched.Driver.delays
            (md5_lines
               (int_list
                  (Core.Schedule.to_interleaving stats.Sched.Driver.output)))
            (md5_lines (List.map Obs.Event.to_string events))
            (md5_lines
               (List.filter_map
                  (function
                    | Obs.Event.Edge_added _ -> None
                    | e -> Some (Obs.Event.to_string e))
                  events))
            (md5_lines
               (List.map
                  (fun (s, d) -> Printf.sprintf "%d>%d" s d)
                  (List.sort_uniq compare edges)))
            (String.concat "," (int_list stats.Sched.Driver.aborts)))
        engines);
  Buffer.contents buf

let test_sgt_decisions_golden () =
  check_golden "sgt_decisions.expected" (sgt_decisions ())

let suite =
  [
    Alcotest.test_case "decision pins (golden)" `Quick test_sgt_decisions_golden;
  ]
