open Core

type policy = { name : string; fcw : bool; ssi : bool }

(* All three engines share this skeleton. Every step reads (own buffer
   first, else the newest committed version at or before the
   transaction's snapshot) and, for Update steps, buffers a fresh
   version that becomes visible at commit. Nothing ever delays; the
   only verdicts are Grant and (for SI/SSI) Abort, decided by pure
   queries at the final step's attempt:

   - first-committer-wins ([fcw]): abort if an overlapping committed
     transaction installed a version of anything in the requester's
     static update set after the requester's snapshot;
   - Fekete dangerous structure ([ssi]): abort if committing would
     complete a transaction with both an incoming and an outgoing
     rw-antidependency edge to concurrent transactions (the pivot), or
     turn a concurrent neighbour into one. Edges discovered earlier
     persist as sticky in/out flags on the (possibly already
     committed, still retained) transaction records, so no dangerous
     structure can fully commit — serializability follows from Fekete
     et al.'s theorem without tracking the full graph.

   A shadow serialization graph over the current incarnations (wr/ww
   edges recorded as accesses happen, rw edges as they are discovered)
   is kept solely to classify each pivot abort as cyclic (a genuine
   serialization hazard) or a false positive — the admission decision
   itself never consults it. *)
let create policy ?(sink = Obs.Sink.null) ~syntax () =
  let fmt = Syntax.format syntax in
  let n = Array.length fmt in
  let st = Mvstore.create () in
  let update_vars = Array.init n (Syntax.updates syntax) in
  let record ev = if Obs.Sink.on sink then Obs.Sink.record sink ev in
  (* ---- shadow serialization graph (classification only) ---- *)
  let shadow : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* edges added touching each transaction; may hold edges since
     purged by the other end, which a later purge removes harmlessly *)
  let touching = Array.make n [] in
  let shadow_add src dst =
    if policy.ssi && src <> dst && not (Hashtbl.mem shadow (src, dst))
    then begin
      Hashtbl.add shadow (src, dst) ();
      touching.(src) <- (src, dst) :: touching.(src);
      touching.(dst) <- (src, dst) :: touching.(dst)
    end
  in
  let shadow_purge i =
    List.iter (Hashtbl.remove shadow) touching.(i);
    touching.(i) <- []
  in
  let shadow_cyclic ~extra =
    let g = Digraph.create n in
    Hashtbl.iter (fun (s, d) () -> Digraph.add_edge g s d) shadow;
    List.iter (fun (s, d) -> Digraph.add_edge g s d) extra;
    Digraph.has_cycle g
  in
  (* ---- pure admission queries ---- *)
  let snap_of tx =
    (* a transaction that has not begun (single-step, or first step)
       would pin the current clock — equivalently, it overlaps nothing
       committed *)
    match Mvstore.live_txn st tx with
    | Some t -> Mvstore.snapshot t
    | None -> Mvstore.clock st
  in
  (* The rw-antidependency edges the final step's commit would create,
     as existence tests over the store's indexes. [in_new]: concurrent
     transactions that read something in [tx]'s update set (edge
     u -> tx). [out_new]: concurrent committed transactions that
     installed, after [tx]'s snapshot, a version of something [tx] read
     (edge tx -> w) — such a version is newer than every live snapshot's
     minimum, so its installer is still retained. Both are consumed
     only as sets, so visiting a transaction twice is harmless. *)
  let exists_in_new tx ~snap p =
    List.exists
      (fun x -> Mvstore.exists_concurrent_reader st x ~snap ~excluding:tx p)
      update_vars.(tx)
  in
  let exists_out_new tx ~snap final_var final_kind p =
    let newer x =
      Mvstore.exists_newer_writer st x ~than:snap ~excluding:tx (fun w ->
          match Mvstore.retained_txn st w with Some u -> p u | None -> false)
    in
    (final_kind = Op.Read && newer final_var)
    ||
    match Mvstore.live_txn st tx with
    | Some t -> Names.Vset.exists newer t.Mvstore.reads
    | None -> false
  in
  (* the members of an [exists_*] set, for the paths that need edges *)
  let members exists =
    let acc = ref [] in
    ignore (exists (fun u -> acc := u :: !acc; false));
    !acc
  in
  let dangerous tx final_var final_kind =
    let snap = snap_of tx in
    let in_new = exists_in_new tx ~snap in
    let out_new = exists_out_new tx ~snap final_var final_kind in
    let in_flag, out_flag =
      match Mvstore.live_txn st tx with
      | Some t -> (t.Mvstore.in_rw, t.Mvstore.out_rw)
      | None -> (false, false)
    in
    let any _ = true in
    let pivot =
      (in_flag || in_new any) && (out_flag || out_new any)
      (* tx itself completes the structure *)
      || in_new (fun (u : Mvstore.txn) -> u.Mvstore.in_rw)
      (* a neighbour that already had an in-edge gains its out-edge *)
      || out_new (fun (u : Mvstore.txn) -> u.Mvstore.out_rw)
      (* a committed neighbour that already had an out-edge gains in *)
    in
    if not pivot then None
    else
      let edge_in (u : Mvstore.txn) = (u.Mvstore.id, tx) in
      let edge_out (u : Mvstore.txn) = (tx, u.Mvstore.id) in
      let extra =
        List.map edge_in (members in_new) @ List.map edge_out (members out_new)
      in
      Some (shadow_cyclic ~extra)
  in
  let attempt (id : Names.step_id) =
    let tx = id.Names.tx in
    if id.Names.idx < fmt.(tx) - 1 then Scheduler.Grant
    else
      (* all admission control happens at the final step: abort
         decisions are pure queries here, effects live in [commit] *)
      let snap = snap_of tx in
      match
        if policy.fcw then
          Mvstore.ww_conflict st ~snap ~excluding:tx update_vars.(tx)
        else None
      with
      | Some var ->
        record (Obs.Event.Ww_refused { tx; var });
        Scheduler.Abort
      | None ->
        if not policy.ssi then Scheduler.Grant
        else begin
          match
            dangerous tx (Syntax.var syntax id) (Syntax.kind syntax id)
          with
          | Some cyclic ->
            record (Obs.Event.Pivot_refused { tx; cyclic });
            Scheduler.Abort
          | None -> Scheduler.Grant
        end
  in
  let commit (id : Names.step_id) =
    let tx = id.Names.tx in
    let t =
      match Mvstore.live_txn st tx with
      | Some t -> t
      | None ->
        let t = Mvstore.begin_txn st tx in
        record (Obs.Event.Snapshot_taken { tx; ts = Mvstore.snapshot t });
        t
    in
    let x = Syntax.var syntax id in
    let v, writer = Mvstore.read st t x in
    record (Obs.Event.Version_read { tx; var = x; value = v });
    (match writer with Some w -> shadow_add w tx | None -> ());
    if policy.ssi then
      (* reading under a snapshot an item a concurrent transaction
         already overwrote: rw edge tx -> w, sticky on both ends *)
      List.iter
        (fun w ->
          t.Mvstore.out_rw <- true;
          (match Mvstore.retained_txn st w with
          | Some u -> u.Mvstore.in_rw <- true
          | None -> ());
          shadow_add tx w)
        (Mvstore.newer_writers st x ~than:t.Mvstore.snap ~excluding:tx);
    (* any writing op installs a version; the mv engines treat semantic
       ops conservatively, as general updates *)
    if Op.writes (Syntax.kind syntax id) then begin
      (match Mvstore.newest st x with
      | Some v when v.Mvstore.writer <> tx -> shadow_add v.Mvstore.writer tx
      | _ -> ());
      let v' = Mvstore.write st t x in
      record (Obs.Event.Version_installed { tx; var = x; value = v' })
    end;
    if id.Names.idx = fmt.(tx) - 1 then begin
      if policy.ssi then begin
        (* persist the edges this commit creates so later commit
           attempts of the neighbours still see them *)
        let snap = t.Mvstore.snap in
        let kind = Syntax.kind syntax id in
        List.iter
          (fun (u : Mvstore.txn) ->
            u.Mvstore.out_rw <- true;
            t.Mvstore.in_rw <- true;
            shadow_add u.Mvstore.id tx)
          (members (exists_in_new tx ~snap));
        List.iter
          (fun (u : Mvstore.txn) ->
            t.Mvstore.out_rw <- true;
            u.Mvstore.in_rw <- true;
            shadow_add tx u.Mvstore.id)
          (members (exists_out_new tx ~snap x kind))
      end;
      ignore (Mvstore.commit st t)
    end
  in
  let on_abort tx =
    (match Mvstore.live_txn st tx with
    | Some t -> Mvstore.abort st t
    | None -> ());
    shadow_purge tx
  in
  Scheduler.make ~name:policy.name ~attempt ~commit ~on_abort ()
