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
  (* One admission core per shard, over shard-local transaction and
     variable ids; its events carry global transaction ids. *)
  let core =
    Array.init shards (fun s ->
        let members = p.Partition.members.(s) in
        Sgt_core.create ~sink ~label:members ~n:(Array.length members)
          ~conflicts:(Sgt_core.same_slot (max 1 p.Partition.n_lvars.(s)))
          ())
  in
  (* The coordinator: a summary graph over coordinator-local ids of the
     cross-shard transactions, materialised only when any exist — on an
     all-single-shard workload nothing below ever touches it. *)
  let cgraph =
    if p.Partition.n_cross = 0 then None
    else Some (Digraph.Acyclic.create p.Partition.n_cross)
  in
  let cversion = ref 0 in
  (* The wake epoch: moved by every removal in a shard core and every
     coordinator removal. *)
  let epoch = ref 0 in
  (* cross-shard transactions present in each shard, as shard-local
     ids and the matching coordinator ids: the only candidate endpoints
     of summary edges discovered in that shard *)
  let cross_local =
    Array.map
      (fun mem ->
        Array.of_list
          (List.filter
             (fun l -> p.Partition.cross.(mem.(l)))
             (List.init (Array.length mem) Fun.id)))
      p.Partition.members
  in
  let cross_coord =
    Array.mapi
      (fun s ->
        Array.map (fun l -> p.Partition.cross_id.(p.Partition.members.(s).(l))))
      cross_local
  in
  (* The delay cache of each shard core, plus the coordinator version:
     a Delay verdict stays valid until a removal in the owning shard or
     a coordinator removal (abort of a cross transaction) — the only
     events that can shrink the graphs a refusal was computed on. *)
  let blocked_cv = Array.make n (-1) in
  (* Candidate summary edges of granting step (tx, idx) in shard [s]:
     sources A are the cross transactions of [s] where a new
     intra-shard path starts, targets B those where one ends, plus tx
     itself when cross (tx is excluded from A: its only new paths are
     self-loops through its own vertex). *)
  let summary_candidates s l lv tx =
    let aa, bb =
      Sgt_core.new_paths core.(s) l lv ~vertices:cross_local.(s)
        ~ids:cross_coord.(s)
    in
    (aa, if p.Partition.cross.(tx) then p.Partition.cross_id.(tx) :: bb else bb)
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
    let c = core.(s) in
    let l = p.Partition.local_id.(s).(tx) in
    if Sgt_core.delayed c l idx && blocked_cv.(tx) = !cversion then
      Scheduler.Delay
    else begin
      let lv = p.Partition.lvar_of_step.(tx).(idx) in
      if Obs.Sink.on sink then
        Obs.Sink.record sink (Obs.Event.Shard_routed { tx; idx; shard = s });
      if Sgt_core.closes_cycle c l lv || summary_refused s l lv tx then begin
        Sgt_core.refuse c l idx;
        blocked_cv.(tx) <- !cversion;
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
  (* A repeat access creates no intra-shard path (see
     {!Sgt_core.record}), so it adds no shard edge and no summary edge.
     A fresh one discovers summary edges against the pre-extension
     graph: the new paths are exactly A x B, and [attempt] vetted them
     against the summary graph, so insertion cannot fail. *)
  let commit (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    let s = p.Partition.shard_of_step.(tx).(idx) in
    let c = core.(s) in
    let l = p.Partition.local_id.(s).(tx) in
    let lv = p.Partition.lvar_of_step.(tx).(idx) in
    if Sgt_core.fresh c l lv then begin
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
      Sgt_core.record c l lv
    end;
    (* Shard-local pruning is restricted to single-shard transactions:
       for them a zero in-degree in the home shard is a zero global
       in-degree. A cross-shard transaction is never marked completed:
       its shard-local in-degree says nothing about its edges
       elsewhere, and dropping its accessor entries would lose summary
       paths. *)
    if idx = fmt.(tx) - 1 then begin
      let before = Sgt_core.removals c in
      if p.Partition.cross.(tx) then Sgt_core.prune c else Sgt_core.finish c l;
      epoch := !epoch + Sgt_core.removals c - before
    end
  in
  let on_abort tx =
    for s = 0 to shards - 1 do
      let l = p.Partition.local_id.(s).(tx) in
      if l >= 0 then begin
        Sgt_core.abort core.(s) l;
        incr epoch
      end
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
  (* No eager [detect], as in {!Sgt_core.scheduler}: a refused request
     dooms only its requester and blocks nobody, so lazy stall
     resolution is strictly cheaper in restarts. *)
  Scheduler.make ~name:"sharded" ~attempt ~commit ~on_abort
    ~epoch:(fun () -> !epoch) ()
