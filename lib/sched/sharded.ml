open Core

let create ?(sink = Obs.Sink.null) ?(shards = 4) ?commit_cross ~syntax () =
  let p = Partition.make ~syntax ~shards in
  let fmt = Syntax.format syntax in
  let n = p.Partition.n in
  (* Touched-shard lists of the cross-shard transactions, decoded once
     from the partition bitmasks — the participant sets handed to the
     atomic-commit hook. *)
  let shards_of_tx =
    match commit_cross with
    | None -> [||]
    | Some _ ->
      Array.init n (fun tx ->
          if not p.Partition.cross.(tx) then []
          else begin
            let acc = ref [] in
            for s = shards - 1 downto 0 do
              if p.Partition.mask.(tx) land (1 lsl s) <> 0 then acc := s :: !acc
            done;
            !acc
          end)
  in
  (* Per-shard replicas of the {!Sgt} state, over shard-local ids:
     accessor history per shard-local variable, activity flags, the
     incremental conflict graph, and the removal version stamp backing
     the delay cache. *)
  let history =
    Array.init shards (fun s -> Array.make (max 1 p.Partition.n_lvars.(s)) [])
  in
  let active =
    Array.init shards (fun s ->
        Array.make (Array.length p.Partition.members.(s)) false)
  in
  let graph =
    Array.init shards (fun s ->
        Digraph.Acyclic.create (Array.length p.Partition.members.(s)))
  in
  let version = Array.make shards 0 in
  let completed = Array.make n false in
  (* The coordinator: a summary graph over coordinator-local ids of the
     cross-shard transactions, materialised only when any exist — on an
     all-single-shard workload nothing below ever touches it. *)
  let cgraph =
    if p.Partition.n_cross = 0 then None
    else Some (Digraph.Acyclic.create p.Partition.n_cross)
  in
  let cversion = ref 0 in
  (* The wake epoch: bumped wherever a shard version or [cversion]
     moves, so an unchanged epoch means every cache key below is
     unchanged too. *)
  let epoch = ref 0 in
  (* cross-shard transactions present in each shard, as (shard-local id,
     coordinator id, global id): the only candidate endpoints of summary
     edges discovered in that shard *)
  let cross_in_shard =
    Array.init shards (fun s ->
        let acc = ref [] in
        let mem = p.Partition.members.(s) in
        for l = Array.length mem - 1 downto 0 do
          let g = mem.(l) in
          if p.Partition.cross.(g) then
            acc := (l, p.Partition.cross_id.(g), g) :: !acc
        done;
        Array.of_list !acc)
  in
  (* Delay cache, as in {!Sgt} but keyed on both the step's shard
     version and the coordinator version: a Delay verdict stays valid
     until a removal in the owning shard (abort or prune there) or a
     coordinator removal (abort of a cross transaction) — the only
     events that can shrink the graphs a refusal was computed on. *)
  let blocked_idx = Array.make n (-1) in
  let blocked_sv = Array.make n (-1) in
  let blocked_cv = Array.make n (-1) in
  (* Candidate summary edges of granting step (tx, idx) in shard [s]:
     the new intra-shard edges are [u -> l] for prior accessors [u], so
     every new intra-shard path runs [a ~> u -> l ~> b]. Sources A are
     the cross transactions of [s] reaching some accessor (tx itself
     excluded: its only new paths are self-loops through [l]); targets B
     are the cross transactions reachable from [l], plus tx itself when
     cross. Both reachability queries reuse [closes_cycle_any] as a
     pure multi-source reachability test. *)
  let summary_candidates s l lv tx =
    let srcs = history.(s).(lv) in
    if srcs = [] then ([], [])
    else begin
      let a = ref [] and b = ref [] in
      Array.iter
        (fun (lc, cc, g) ->
          if g <> tx && active.(s).(lc) then begin
            if
              Digraph.Acyclic.closes_cycle_any ~excluding:l graph.(s)
                ~sources:srcs ~target:lc
            then a := cc :: !a;
            if
              Digraph.Acyclic.closes_cycle_any graph.(s) ~sources:[ lc ]
                ~target:l
            then b := cc :: !b
          end)
        cross_in_shard.(s);
      if p.Partition.cross.(tx) then b := p.Partition.cross_id.(tx) :: !b;
      (!a, !b)
    end
  in
  (* Would adding every candidate edge close a cycle in the summary
     graph? Tested per target over the common source set A: a cycle
     through several candidate edges still has some target with an
     existing-edge path to a source in A, so per-target queries cover
     the whole batch. *)
  let summary_refused s l lv tx =
    match cgraph with
    | None -> false
    | Some cg -> (
      match summary_candidates s l lv tx with
      | [], _ | _, [] -> false
      | aa, bb ->
        List.exists
          (fun bt ->
            List.memq bt aa
            || Digraph.Acyclic.closes_cycle_any cg ~sources:aa ~target:bt)
          bb)
  in
  let attempt (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    let s = p.Partition.shard_of_step.(tx).(idx) in
    if
      blocked_idx.(tx) = idx
      && blocked_sv.(tx) = version.(s)
      && blocked_cv.(tx) = !cversion
    then Scheduler.Delay
    else begin
      let l = p.Partition.local_id.(s).(tx) in
      let lv = p.Partition.lvar_of_step.(tx).(idx) in
      if Obs.Sink.on sink then
        Obs.Sink.record sink (Obs.Event.Shard_routed { tx; idx; shard = s });
      if
        Digraph.Acyclic.closes_cycle_any ~excluding:l graph.(s)
          ~sources:history.(s).(lv) ~target:l
        || summary_refused s l lv tx
      then begin
        blocked_idx.(tx) <- idx;
        blocked_sv.(tx) <- version.(s);
        blocked_cv.(tx) <- !cversion;
        if Obs.Sink.on sink then
          Obs.Sink.record sink (Obs.Event.Cycle_refused { tx; idx });
        Scheduler.Delay
      end
      else begin
        (* Terminal success of a cross-shard transaction: run the
           distributed commit round before granting. An abort here is a
           scheduler abort like any certification refusal — the driver
           restarts the transaction from scratch. *)
        match commit_cross with
        | Some decide when idx = fmt.(tx) - 1 && p.Partition.cross.(tx) ->
          if decide ~tx ~shards:shards_of_tx.(tx) then Scheduler.Grant
          else Scheduler.Abort
        | _ -> Scheduler.Grant
      end
    end
  in
  let forget s l =
    version.(s) <- version.(s) + 1;
    incr epoch;
    let h = history.(s) in
    for v = 0 to Array.length h - 1 do
      if List.memq l h.(v) then h.(v) <- List.filter (fun u -> u <> l) h.(v)
    done;
    active.(s).(l) <- false;
    Digraph.Acyclic.remove_vertex graph.(s) l
  in
  (* Shard-local pruning, restricted to single-shard transactions: for
     them a zero in-degree in the home shard is a zero global in-degree,
     and a completed transaction never gains incoming edges, so they are
     sources forever — exactly the {!Sgt} argument. A cross-shard
     transaction is never pruned: its shard-local in-degree says nothing
     about its edges elsewhere, and dropping its history entries would
     lose summary paths. Cascades stay inside the shard (removed edges
     are intra-shard). *)
  let rec prune s =
    let mem = p.Partition.members.(s) in
    let ns = Array.length mem in
    let victim = ref (-1) in
    let l = ref 0 in
    while !victim < 0 && !l < ns do
      let g = mem.(!l) in
      if
        completed.(g)
        && (not p.Partition.cross.(g))
        && active.(s).(!l)
        && Digraph.Acyclic.in_degree graph.(s) !l = 0
      then victim := !l;
      incr l
    done;
    if !victim >= 0 then begin
      forget s !victim;
      prune s
    end
  in
  let add_shard_edges s tx l srcs =
    List.iter
      (fun u ->
        if u <> l then begin
          match Digraph.Acyclic.add_edge_acyclic graph.(s) u l with
          | Ok () ->
            if Obs.Sink.on sink then
              Obs.Sink.record sink
                (Obs.Event.Edge_added
                   { src = p.Partition.members.(s).(u); dst = tx })
          | Error _ ->
            (* [attempt] vetted the whole batch; an edge cannot fail *)
            assert false
        end)
      srcs
  in
  let commit (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    let s = p.Partition.shard_of_step.(tx).(idx) in
    let l = p.Partition.local_id.(s).(tx) in
    let lv = p.Partition.lvar_of_step.(tx).(idx) in
    (* discover summary edges against the pre-extension graph: the new
       paths are exactly A x B, and [attempt] vetted them against the
       summary graph, so insertion cannot fail *)
    (match cgraph with
    | None -> ()
    | Some cg ->
      let aa, bb = summary_candidates s l lv tx in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if a <> b then
                match Digraph.Acyclic.add_edge_acyclic cg a b with
                | Ok () -> ()
                | Error _ -> assert false)
            bb)
        aa);
    add_shard_edges s tx l history.(s).(lv);
    if not (List.memq l history.(s).(lv)) then
      history.(s).(lv) <- l :: history.(s).(lv);
    active.(s).(l) <- true;
    if idx = fmt.(tx) - 1 then begin
      completed.(tx) <- true;
      prune s
    end
  in
  let on_abort tx =
    completed.(tx) <- false;
    for s = 0 to shards - 1 do
      let l = p.Partition.local_id.(s).(tx) in
      if l >= 0 then forget s l
    done;
    match cgraph with
    | None -> ()
    | Some cg ->
      if p.Partition.cross.(tx) then begin
        Digraph.Acyclic.remove_vertex cg p.Partition.cross_id.(tx);
        incr cversion;
        incr epoch
      end
  in
  (* No eager [detect], for the same reason as {!Sgt}: a refused request
     dooms only its requester and blocks nobody, so lazy stall
     resolution is strictly cheaper in restarts. *)
  Scheduler.make ~name:"sharded" ~attempt ~commit ~on_abort
    ~epoch:(fun () -> !epoch) ()
