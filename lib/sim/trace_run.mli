open Core

(** The shared tracing pipeline behind [ccopt trace] and the trace test
    suite: drive the standard scheduler suite over one seeded arrival
    stream, each scheduler recording into its own ring buffer, and
    derive everything the trace proves — folded counters (checked
    against the driver's stats), the §6 span decomposition, the waiting
    histogram and the Chrome-trace rendering.

    Everything here is a deterministic function of the spec, so the CLI
    and the tests produce byte-identical artifacts in-process. *)

type spec = {
  label : string;       (** the syntax as the user wrote it (for reports) *)
  syntax : Syntax.t;
  seed : int;
  capacity : int;       (** ring-buffer capacity per scheduler *)
  samples : int;        (** Monte-Carlo samples for the zero-delay fraction *)
  only : string list;   (** scheduler names to keep; [[]] = whole suite *)
}

val default_capacity : int
(** [65536] — comfortably above any trace these workloads produce. *)

val schema_version : int
(** Version stamp carried as ["schema_version"] by every
    machine-readable report ([ccopt analyze], [ccopt trace],
    [ccopt check]); bumped when a consumer-visible key changes. *)

type run = {
  name : string;
  slug : string;                    (** filename-safe form of [name] *)
  n : int;                          (** transactions in the syntax *)
  stats : Sched.Driver.stats;
  events : (float * Obs.Event.t) list;
  dropped : int;                    (** ring overwrites; 0 = complete trace *)
  counters : Obs.Fold.counters;
  totals : Obs.Span.breakdown;      (** §6 decomposition summed over txs *)
  wait_hist : Obs.Hist.t;
  zero_delay_fraction : float;
  chrome : Obs.Json.t;              (** Chrome trace_event JSON *)
}

val slug_of_name : string -> string
(** {!Sched.Registry.slug_of_name}: lowercased, primes spelled out,
    everything else non-alphanumeric collapsed to ["-"]: ["2PL'"]
    becomes ["2pl-prime"]. *)

val execute : spec -> run list
(** One traced driver run per selected scheduler, all over the same
    arrival stream. [only] resolves through {!Sched.Registry.find} (so
    any registered scheduler round-trips, not just the standard suite);
    raises [Invalid_argument] listing {!Sched.Registry.names} on an
    unknown name. *)

val mismatches : run -> string list
(** The trace-vs-stats differential: every counter the fold recovers
    that disagrees with the driver's statistics, as diagnostics.
    [[]] means the trace is a faithful witness (always the case on a
    complete trace — enforced by the tests). Truncated traces
    ([dropped > 0]) are not checkable and report [[]]. *)

val pp_summary : Format.formatter -> run list -> unit
(** The §6 summary table plus one waiting-histogram line per
    scheduler. Deterministic — golden-file tested. *)

val json_summary : spec -> run list -> Obs.Json.t
(** The same report as a deterministic JSON object. *)
