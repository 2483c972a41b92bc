type entry = {
  name : string;
  cat : string;
  ph : char;
  ts : float;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

let lifecycle = "lifecycle"
let internal = "scheduler"

let instant ?(cat = lifecycle) ~ts ~tid name args =
  { name; cat; ph = 'i'; ts; pid = 0; tid; args }

let entries events =
  let open Json in
  (* The DES can emit slightly out of global order (a decision at t may
     be recorded after an arrival at t' < t was processed); sorting
     stably by timestamp restores track monotonicity without touching
     the order of simultaneous events. *)
  let events = List.stable_sort (fun (a, _) (b, _) -> compare a b) events in
  let max_tx =
    List.fold_left
      (fun m (_, ev) ->
        match Event.tx ev with Some tx -> max m tx | None -> m)
      (-1) events
  in
  let meta =
    { name = "thread_name"; cat = "__metadata"; ph = 'M'; ts = 0.; pid = 0;
      tid = 0; args = [ ("name", String "scheduler") ] }
    :: List.init (max_tx + 1) (fun tx ->
           { name = "thread_name"; cat = "__metadata"; ph = 'M'; ts = 0.;
             pid = 0; tid = tx + 1;
             args = [ ("name", String (Printf.sprintf "T%d" (tx + 1))) ] })
  in
  let open_wait = Array.make (max_tx + 1) false in
  let open_exec = Array.make (max_tx + 1) false in
  let last_ts = ref 0. in
  let rev = ref [] in
  let push e = rev := e :: !rev in
  let close_wait ~ts tx =
    if open_wait.(tx) then begin
      open_wait.(tx) <- false;
      push { name = "wait"; cat = lifecycle; ph = 'E'; ts; pid = 0;
             tid = tx + 1; args = [] }
    end
  in
  let close_exec ~ts tx =
    if open_exec.(tx) then begin
      open_exec.(tx) <- false;
      push { name = "exec"; cat = lifecycle; ph = 'E'; ts; pid = 0;
             tid = tx + 1; args = [] }
    end
  in
  List.iter
    (fun (ts, ev) ->
      last_ts := ts;
      match (ev : Event.t) with
      | Submitted { tx; idx } ->
        push (instant ~ts ~tid:(tx + 1) "submit" [ ("step", Int idx) ])
      | Delayed { tx; idx } ->
        if not open_wait.(tx) then begin
          open_wait.(tx) <- true;
          push { name = "wait"; cat = lifecycle; ph = 'B'; ts; pid = 0;
                 tid = tx + 1; args = [ ("step", Int idx) ] }
        end
      | Granted { tx; idx } ->
        close_wait ~ts tx;
        open_exec.(tx) <- true;
        push { name = "exec"; cat = lifecycle; ph = 'B'; ts; pid = 0;
               tid = tx + 1; args = [ ("step", Int idx) ] }
      | Executed { tx; _ } -> close_exec ~ts tx
      | Committed { tx } -> push (instant ~ts ~tid:(tx + 1) "commit" [])
      | Aborted { tx; reason } ->
        close_wait ~ts tx;
        close_exec ~ts tx;
        push
          (instant ~ts ~tid:(tx + 1) "abort"
             [ ( "reason",
                 String
                   (match reason with
                   | Event.Deadlock -> "deadlock"
                   | Event.Scheduler_abort -> "scheduler") ) ])
      | Restarted { tx } -> push (instant ~ts ~tid:(tx + 1) "restart" [])
      | Edge_added { src; dst } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "edge"
             [ ("src", Int (src + 1)); ("dst", Int (dst + 1)) ])
      | Cycle_refused { tx; idx } ->
        push
          (instant ~cat:internal ~ts ~tid:(tx + 1) "cycle-refused"
             [ ("step", Int idx) ])
      | Commute_pass { tx; idx; skipped } ->
        push
          (instant ~cat:internal ~ts ~tid:(tx + 1) "commute-pass"
             [ ("step", Int idx); ("skipped", Int skipped) ])
      | Lock_acquired { tx; lock } ->
        push (instant ~cat:internal ~ts ~tid:(tx + 1) "lock"
                [ ("var", String lock) ])
      | Lock_released { tx; lock } ->
        push (instant ~cat:internal ~ts ~tid:(tx + 1) "unlock"
                [ ("var", String lock) ])
      | Wound { victim } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "wound"
             [ ("victim", Int (victim + 1)) ])
      | Ts_refused { tx; idx } ->
        push
          (instant ~cat:internal ~ts ~tid:(tx + 1) "ts-refused"
             [ ("step", Int idx) ])
      | Shard_routed { tx; idx; shard } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "shard-routed"
             [ ("tx", Int (tx + 1)); ("step", Int idx); ("shard", Int shard) ])
      | Snapshot_taken { tx; ts = snap } ->
        push
          (instant ~cat:internal ~ts ~tid:(tx + 1) "snapshot"
             [ ("ts", Int snap) ])
      | Version_read { tx; var; value } ->
        push
          (instant ~cat:internal ~ts ~tid:(tx + 1) "vread"
             [ ("var", String var); ("value", Int value) ])
      | Version_installed { tx; var; value } ->
        push
          (instant ~cat:internal ~ts ~tid:(tx + 1) "vinstall"
             [ ("var", String var); ("value", Int value) ])
      | Ww_refused { tx; var } ->
        push
          (instant ~cat:internal ~ts ~tid:(tx + 1) "ww-refused"
             [ ("var", String var) ])
      | Pivot_refused { tx; cyclic } ->
        push
          (instant ~cat:internal ~ts ~tid:(tx + 1) "pivot-refused"
             [ ("cyclic", String (if cyclic then "true" else "false")) ])
      | Twopc_sent { tx; src; dst; msg } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "2pc-send"
             [ ("tx", Int (tx + 1)); ("src", Int src); ("dst", Int dst);
               ("msg", String (Event.payload_to_string msg)) ])
      | Twopc_delivered { tx; src; dst; msg } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "2pc-recv"
             [ ("tx", Int (tx + 1)); ("src", Int src); ("dst", Int dst);
               ("msg", String (Event.payload_to_string msg)) ])
      | Twopc_decided { tx; node; commit } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "2pc-decided"
             [ ("tx", Int (tx + 1)); ("node", Int node);
               ("outcome", String (if commit then "commit" else "abort")) ])
      | Twopc_timeout { tx; node; timer } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "2pc-timeout"
             [ ("tx", Int (tx + 1)); ("node", Int node);
               ("timer", String timer) ])
      | Node_crashed { tx; node } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "node-crashed"
             [ ("tx", Int (tx + 1)); ("node", Int node) ])
      | Node_recovered { tx; node } ->
        push
          (instant ~cat:internal ~ts ~tid:0 "node-recovered"
             [ ("tx", Int (tx + 1)); ("node", Int node) ]))
    events;
  (* a truncated trace (ring overflow) may leave spans open: close them
     so every B has its E *)
  for tx = 0 to max_tx do
    close_exec ~ts:!last_ts tx;
    close_wait ~ts:!last_ts tx
  done;
  meta @ List.rev !rev

(* ---------- JSON rendering ---------- *)

let chrome_of_entries es =
  let event e =
    Json.Object
      ([
         ("name", Json.String e.name);
         ("cat", Json.String e.cat);
         ("ph", Json.String (String.make 1 e.ph));
         ("ts", Json.fixed 3 e.ts);
         ("pid", Json.Int e.pid);
         ("tid", Json.Int e.tid);
       ]
      @ if e.args = [] then [] else [ ("args", Json.Object e.args) ])
  in
  Json.Object
    [
      ("displayTimeUnit", Json.String "ms");
      ("traceEvents", Json.Array (List.map event es));
    ]

let chrome events = chrome_of_entries (entries events)
