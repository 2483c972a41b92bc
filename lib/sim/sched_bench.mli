open Core

(** Scheduler decision-cost harness behind [ccopt bench]: what each
    scheduler admits and what it costs in delays and restarts per
    committed step, the paper's §6 measures, on deterministic workloads.

    Each cell fixes a seeded syntax and a set of arrival streams that
    every engine of its section replays through {!Sched.Driver.run}.
    No section reads a clock, so the report is a function of its
    {!spec}: [BENCH_sched.json] is the default spec's report. Committed
    work per second is measured by [perfbench/]. The report is a list of
    {!section} records, each one an {!Obs.Json} value that gives both
    its text table and its JSON member. Also bench experiment B1. *)

type spec = {
  sizes : (int * int) list;  (** (n transactions, m steps) per cell *)
  mixes : string list;
      (** subset of ["uniform"; "hot"; "skewed"; "disjoint"] *)
  n_vars : int;
  streams : int;             (** arrival streams per cell *)
  seed : int;
  shard_ks : int list;
      (** sharded-engine section: K values ([[]] disables the section) *)
  shard_sizes : (int * int) list;
      (** sizes of the sharded section; contended (non-disjoint) mixes
          are capped at [n <= 256] — a single hot run at [n >= 512]
          takes seconds — while disjoint cells run at every size *)
  shard_mixes : string list;       (** mixes of the sharded section *)
  mv_sizes : (int * int) list;
      (** multi-version section sizes ([[]] disables the section) *)
  mv_mixes : string list;
      (** multi-version section mixes, typically the typed
          ["rw-uniform"]/["rw-hot"] read/update mixes *)
  mv_samples : int;
      (** Monte-Carlo samples behind each [breadth] estimate *)
  sem_sizes : (int * int) list;
      (** commutativity section sizes ([[]] disables the section) *)
  sem_mixes : string list;
      (** commutativity section mixes, typically the typed
          ["ctr-hot"]/["ctr-skewed"] counter mixes where {!Core.Commute}
          actually removes conflict edges *)
  sem_samples : int;
      (** Monte-Carlo samples behind each semantic [breadth] estimate *)
  twopc_fault_rates : float list;
      (** distributed-commit section: crash rates to sweep ([[]]
          disables the section; the slow-link rate rides along at half
          the crash rate) *)
  twopc_rounds : int;  (** commit rounds per fault rate *)
  twopc_parts : int;   (** participants per round *)
}

val default : spec
(** Full run: 4x4 / 8x8 / 16x8 over uniform, hot and zipf-skewed mixes,
    plus the sharded section — monolithic SGT vs {!Sched.Sharded} at
    K ∈ 1, 2, 4, 8 over disjoint/hot/skewed at 64x2 and 256x2, with a
    2048x2 disjoint cell. *)

val smoke : spec
(** Tiny sizes — the CI smoke configuration (sharded section at K = 4
    over one disjoint cell). *)

val syntax_of_mix :
  Random.State.t -> mix:string -> n:int -> m:int -> n_vars:int -> Syntax.t
(** The workload generator behind a mix name. Raises [Invalid_argument]
    on an unknown mix. *)

(** {2 Report sections} *)

type section = {
  title : string;      (** heading of the text table *)
  member : string;     (** top-level JSON member *)
  value : Obs.Json.t;  (** the member's value; the text is read off it *)
}
(** One report section: a single record drives both the text table
    and the JSON member, so the two cannot drift apart. *)

val sections : spec -> section list
(** Runs every section of [spec]. In JSON order:
    - ["results"]: per cell of [mixes] x [sizes] and engine (serial,
      2PL, TO, SGT), [committed_steps], [delays] and [restarts] summed
      over the cell's streams, with [delays_per_step] and
      [restarts_per_step];
    - ["sharded"]: the same rows for monolithic SGT and
      [sharded-k<K>] per K of [shard_ks], over [shard_mixes] x
      [shard_sizes] (contended mixes at [n <= 256] only);
    - ["twopc"], unless [twopc_fault_rates] is empty: per fault rate,
      [twopc_rounds] commit rounds through a {!Sched.Twopc.service} over
      [twopc_parts] participants (crash rate at the sweep value, slow
      links at half it) — commits, aborts, latency and in-doubt
      blocking in virtual time — plus the blocking window of a
      coordinator crash between vote collection and decision
      broadcast;
    - ["semantic_section"]: rw-SGT vs the semantic engine on typed
      counter mixes, per cell the Monte-Carlo breadth
      [|P| / |H|] ({!Sched.Driver.zero_delay_fraction}, [sem_samples]
      samples) and the tallies [delays], [commute_passes] (grants that
      passed live same-variable accesses because every one commuted)
      and [commute_skipped] (the conflict edges commutativity removed);
    - ["mv_section"]: SGT vs MVCC/SI/SSI on typed read/update mixes,
      breadth ([mv_samples] samples) and the tallies [commits],
      [ww_aborts] (first-committer-wins refusals), [pivot_aborts] (SSI
      dangerous structures) and [false_positive_aborts] (pivot refusals
      whose serialization graph was acyclic). *)

val to_json : spec -> section list -> Obs.Json.t
(** The schema of [BENCH_sched.json]: [{"benchmark", "unit",
    "config", ...sections}]. *)

val pp : Format.formatter -> section list -> unit
(** The text tables: each section's title, then its value — an array
    of objects as a table under the member names, other members as
    name/value lines. Sections with nothing to show are skipped. *)
