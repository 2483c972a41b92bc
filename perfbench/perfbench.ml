(* The repository benchmark: committed work per second of the scheduler
   stack, end to end, with a separate traced run that splits the time
   by layer. See README.md in this directory for the workloads, the
   metric-to-layer map and the load shape. *)

open Common

let () =
  let specs =
    [
      ("--workload", Arg.Set_string workload, " hot | tenants | ledger");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end, 1: per-layer");
      ("--nproc", Arg.Set_int nproc, " online processors, for the fingerprint");
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("stray " ^ a))) usage;
  if
    (not (List.mem !workload Gen.names))
    || !seconds < 1
    || (!trace <> 0 && !trace <> 1)
  then begin
    prerr_endline usage;
    exit 2
  end

let engine_pass refs (e : engine) =
  let streams = refs.w.Gen.streams in
  let got = Array.make (Array.length streams) None in
  let steps = Gen.total_steps refs.w in
  {
    metric =
      (if e == sgt_ring then "sgt.traced_commit_steps_per_s"
       else e.key ^ ".commit_steps_per_s");
    unit_name = "steps/s";
    sweep_once =
      (fun () ->
        for k = 0 to Array.length streams - 1 do
          got.(k) <- attempt e streams.(k)
        done;
        steps);
    check = (fun () -> same_as_refs refs e.key got);
    rates = [];
  }

let check_pass refs =
  let events =
    Array.fold_left (fun acc h -> acc + History.n_events h) 0 refs.hists
  in
  let ok = ref true in
  {
    metric = "check.events_per_s";
    unit_name = "events/s";
    sweep_once =
      (fun () ->
        ok := check_ladder refs.hists;
        events);
    check =
      (fun () ->
        attempted := !attempted + Array.length refs.hists;
        if not !ok then fail "checker ladder rejected an sgt history");
    rates = [];
  }

let end_to_end () =
  let refs, setup_s = timed_setup () in
  let refs = with_parallel refs in
  verify refs;
  let measured =
    Array.of_list (List.map (engine_pass refs) engines @ [ check_pass refs ])
  in
  let calibration = calibration_pass () in
  (* three calibration samples a round track the host between engines;
     a fresh order every round keeps interference that recurs with the
     period of a round from always landing on the same pass *)
  let passes = Array.append measured [| calibration; calibration; calibration |] in
  let rng = Random.State.make [| 0x5eed |] in
  rounds ~budget_ns:(!seconds * 1_000_000_000) (fun () ->
      for i = Array.length passes - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let p = passes.(i) in
        passes.(i) <- passes.(j);
        passes.(j) <- p
      done;
      Array.iter sample passes);
  let speed = set_host_speed calibration in
  emit ~samples:setups "setup_s" "s" (setup_s *. speed);
  Array.iter
    (fun p ->
      emit ~samples:(List.length p.rates) p.metric p.unit_name
        (median p.rates /. speed))
    measured;
  finish ()

let () =
  if !trace = 0 then end_to_end () else Layers.run ()
