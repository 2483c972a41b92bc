(** Chrome-trace-format ([trace_event]) export, loadable in
    [about://tracing] / Perfetto.

    Each transaction gets a track ([tid = tx + 1]); scheduler-internal
    events (conflict edges, wound decisions) live on track 0. Waiting
    periods render as [B]/[E] duration pairs named ["wait"], granted
    executions as ["exec"] pairs, everything else as instants. The
    exporter guarantees (and the tests check): every [B] has a matching
    [E] with the same name on the same track, and timestamps are
    non-decreasing per track. *)

type entry = {
  name : string;
  cat : string;
  ph : char;  (** 'B', 'E', 'i' (instant) or 'M' (metadata) *)
  ts : float;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

val entries : (float * Event.t) list -> entry list
(** The structured form: metadata (track names) first, then the trace,
    stable-sorted by timestamp. Unclosed spans (a trace cut short by a
    ring buffer) are closed at the final timestamp. *)

val chrome : (float * Event.t) list -> Json.t
(** [entries] as the JSON object
    [{"displayTimeUnit": ..., "traceEvents": [...]}]. Deterministic:
    equal traces give equal values. *)

val chrome_of_entries : entry list -> Json.t
