(* B1: scheduler decision cost — delays and restarts per committed step
   per scheduler across workload sizes and variable mixes, sharded
   against monolithic SGT, plus the admission-breadth and 2PC sections.

   The paper's Section 6 ranks schedulers by what they admit and counts
   every delay and restart as cost. The same harness backs
   `ccopt bench --json`, which emits the committed BENCH_sched.json;
   committed work per second is perfbench's measurement. *)

let run () =
  Tables.section "B1-sched-bench"
    "scheduler decision cost (delays and restarts per committed step)";
  let spec = Sim.Sched_bench.default in
  Format.printf "%a" Sim.Sched_bench.pp (Sim.Sched_bench.sections spec);
  Printf.printf
    "\nshape: TO never delays and pays 0.23-0.75 restarts per committed \
     step; serial never restarts; SGT restarts 0.11-0.18 per step in \
     every cell and delays less than serial; 2PL delays more than serial \
     at 16x8 on uniform and skewed mixes; the sharded engine renders \
     SGT's restarts at every K and its delays to within 0.5%%, with none \
     on disjoint cells.\n"
