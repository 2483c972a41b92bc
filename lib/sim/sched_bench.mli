open Core

(** Scheduler micro-benchmark harness: requests/sec per scheduler across
    workload sizes and variable-access mixes.

    Each cell fixes a deterministic syntax and a set of arrival streams
    (identical for every scheduler), drives them through
    {!Sched.Driver.run} in interleaved rounds — one timed pass of each
    scheduler per round, so CPU frequency drift cannot masquerade as a
    between-scheduler speedup — until the cell's time budget is spent,
    and reports served requests per wall-clock second. The suite includes
    both the incremental SGT and the brute-force {!Sched.Sgt_ref}
    oracle, so the emitted report records the speedup of the
    incremental hot path directly. Every section's cells come from one
    seeded cell builder, so each engine of a section replays the same
    streams. The report is a list of {!section} records, each one an
    {!Obs.Json} value that gives both its text table and its JSON
    member. Surfaced as [ccopt bench] and as bench experiment B1; the
    JSON form is the schema of [BENCH_sched.json]. *)

type spec = {
  sizes : (int * int) list;  (** (n transactions, m steps) per cell *)
  mixes : string list;
      (** subset of ["uniform"; "hot"; "skewed"; "disjoint"] *)
  n_vars : int;
  streams : int;             (** arrival streams per cell *)
  min_time : float;          (** per-cell time budget, seconds *)
  seed : int;
  shard_ks : int list;
      (** sharded-engine section: K values ([[]] disables the section) *)
  shard_sizes : (int * int) list;
      (** sizes of the sharded section; contended (non-disjoint) mixes
          are capped at [n <= 256] — a single hot run at [n >= 512]
          takes seconds, starving every other cell — while disjoint
          cells run at every size to expose the scaling *)
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
  par_domains : int list;
      (** parallel-execution section: domain counts to sweep ([[]]
          disables the section; include [1] — it is the wall-clock
          baseline the speedup map divides by). Each variant runs one
          shard per domain (K = D handed to {!Sched.Parallel.run}), so
          the d1 baseline is the monolithic single-shard engine on one
          domain and the sweep is the engine's end-to-end scaling
          curve. *)
  par_queues : Sched.Chan.kind list;  (** channel builds to compare *)
  par_sizes : (int * int) list;
      (** parallel-section sizes; contended mixes capped at [n <= 256]
          as in the sharded section *)
  par_mixes : string list;
  par_streams : int;
      (** arrival streams per parallel cell (each pass replays all of
          them; kept separate from [streams] because a parallel pass at
          n = 2048 is orders of magnitude more work than a 16x8 cell) *)
  twopc_fault_rates : float list;
      (** distributed-commit section: crash rates to sweep ([[]]
          disables the section; the slow-link rate rides along at half
          the crash rate) *)
  twopc_rounds : int;  (** commit rounds per fault rate *)
  twopc_parts : int;   (** participants per round *)
}

type row = {
  scheduler : string;
  mix : string;
  n : int;
  m : int;
  requests : int;      (** requests served: grants + delays + aborts *)
  seconds : float;
  req_per_sec : float;
}

val default : spec
(** Full run: 4x4 / 8x8 / 16x8 over uniform, hot and zipf-skewed mixes,
    plus the sharded section — monolithic SGT vs {!Sched.Sharded} at
    K ∈ 1, 2, 4, 8 over disjoint/hot/skewed at 64x2 and 256x2, with a
    2048x2 disjoint scaling cell. *)

val smoke : spec
(** Tiny sizes, single pass — the CI smoke configuration (sharded
    section at K = 4 over one disjoint cell). *)

val syntax_of_mix :
  Random.State.t -> mix:string -> n:int -> m:int -> n_vars:int -> Syntax.t
(** The workload generator behind a mix name. Raises [Invalid_argument]
    on an unknown mix. *)

val run : spec -> row list
(** Timing rows: the single-version section, the multi-version section
    (SGT vs MVCC/SI/SSI over [mv_mixes] x [mv_sizes]), the
    commutativity section (SGT vs the semantic engine over
    [sem_mixes] x [sem_sizes]) and the sharded section. *)

type admission = {
  engine : string;
  cell : string * int * int;  (** mix, n, m *)
  breadth : float;
      (** Monte-Carlo [|P| / |H|] ({!Sched.Driver.zero_delay_fraction})
          — the paper's admission-breadth measure, §6 *)
  tallies : (string * int) list;
      (** named event counts over the cell's arrival streams, in the
          order of the JSON row *)
}
(** One row of an admission table: per cell and engine, breadth plus
    event tallies from a traced pass over the cell's streams. *)

val mv_stats : spec -> admission list
(** The multi-version admission table, SGT vs MVCC/SI/SSI per cell.
    Tallies: [commits]; [ww_aborts], first-committer-wins refusals
    ([Ww_refused]); [pivot_aborts], SSI dangerous-structure refusals
    ([Pivot_refused]); [false_positive_aborts], pivot refusals whose
    serialization graph was acyclic — the admissions SSI gives up
    versus an exact certifier. Empty when the section is disabled. *)

val sem_stats : spec -> admission list
(** The commutativity admission table, rw-SGT vs the semantic engine
    on identical typed-counter streams; on these mixes the semantic
    engine's fixpoint strictly contains rw-SGT's, so its breadth reads
    higher. Tallies: [delays]; [commute_passes], the
    [Obs.Event.Commute_pass] count — grants that sailed past live
    same-variable accesses because every one commuted (always [0] for
    the rw engine); [commute_skipped], the accesses those passes
    skipped — the conflict edges the commutativity table deleted.
    Empty when the section is disabled. *)

(** {2 Distributed-commit (2PC) section} *)

type twopc_stat = {
  fault_rate : float;
  tp_rounds : int;
  tp_commits : int;
  tp_aborts : int;
  abort_rate : float;
  avg_latency : float;
      (** mean round start → coordinator decision, virtual time units *)
  avg_blocking : float;  (** mean in-doubt window per round *)
  max_blocking : float;
  tp_msgs : int;
  tp_crashes : int;  (** crash-plan entries that actually triggered *)
}

type twopc_section = {
  tp_parts : int;
  sweep : twopc_stat list;  (** one row per fault rate, rate order *)
  cc_repair : float;
      (** the repair delay of the forced coordinator-crash placements *)
  cc_avg_blocking : float;
      (** mean in-doubt window over the placements that opened one —
          the measured blocking cost of a coordinator crash *)
  cc_max_blocking : float;
}

val twopc_stats : spec -> twopc_section option
(** Run the distributed-commit sweep: per fault rate, [twopc_rounds]
    commit rounds through a {!Sched.Twopc.service}; plus the forced
    coordinator-crash placements (crash between vote collection and
    decision broadcast) that measure the protocol's blocking window.
    [None] when the section is disabled. Deterministic per [seed] —
    rounds run in virtual time, so the numbers are decision counts and
    virtual latencies, not wall-clock. *)

(** {2 Report sections} *)

type section = {
  title : string;      (** heading of the text table *)
  member : string;     (** top-level JSON member *)
  value : Obs.Json.t;  (** the member's value; the text is read off it *)
}
(** One report section: a single record drives both the text table
    and the JSON member, so the two cannot drift apart. *)

val sections :
  ?mv:admission list ->
  ?twopc:twopc_section ->
  ?semantic:admission list ->
  spec ->
  row list ->
  section list
(** In JSON order: ["results"] (one object per row), the per-cell
    req/s ratio maps ["sgt_speedup_vs_ref"] (["<mix>/<n>x<m>"]) and
    ["sharded_speedup_vs_sgt"] (["<mix>/<n>x<m>/k<K>"]), then
    ["parallel"] when the rows hold multi-domain variants whose cell
    also timed the d1 variant of the same channel build — it records
    [Domain.recommended_domain_count ()] beside the
    ["<mix>/<n>x<m>/<queue>/d<D>"] ratios, so a reader can tell
    concurrent gains from algorithmic ones — ["twopc"] when a section is
    passed (the fault-rate sweep plus the measured coordinator-crash
    blocking window), ["semantic_section"] when stats are passed (the
    commutativity admission rows plus the per-cell ["speedup_vs_sgt"]
    map) and ["mv_section"]. *)

val to_json : spec -> section list -> Obs.Json.t
(** The schema of [BENCH_sched.json]: [{"benchmark", "unit",
    "config", ...sections}]. *)

val pp : Format.formatter -> section list -> unit
(** The text tables: each section's title, then its value — an array
    of objects as a table under the member names, other members as
    name/value lines. Sections with nothing to show are skipped. *)
