open Core

let create ?(sink = Obs.Sink.null) ~syntax () =
  let fmt = Syntax.format syntax in
  let n = Syntax.n_transactions syntax in
  (* Interned variables and per-step ops, as in {!Sgt}: the hot path
     never hashes a string. *)
  let var_ids : (Names.var, int) Hashtbl.t = Hashtbl.create 16 in
  let nvars = ref 0 in
  let var_of_step =
    Array.init n (fun i ->
        Array.init fmt.(i) (fun j ->
            let v = Syntax.var syntax (Names.step i j) in
            match Hashtbl.find_opt var_ids v with
            | Some k -> k
            | None ->
              let k = !nvars in
              Hashtbl.add var_ids v k;
              incr nvars;
              k))
  in
  let op_of_step =
    Array.init n (fun i ->
        Array.init fmt.(i) (fun j -> Syntax.kind syntax (Names.step i j)))
  in
  (* Per-variable accessor lists carry the op alongside the transaction:
     an edge is only due when the ops conflict, so a transaction may
     legitimately appear once per distinct op it used on the variable.
     Deduplicated per (transaction, op) — a second identical access
     could only duplicate edges already in the graph. *)
  let history : (int * Op.t) list array = Array.make !nvars [] in
  let active = Array.make n false in
  let graph = Digraph.Acyclic.create n in
  let completed = Array.make n false in
  (* Same monotonicity argument as {!Sgt}: between removals the graph
     and the accessor lists only grow, and a growing conflict
     environment can never turn a cycle-closing request grantable —
     commutativity only ever removes candidate edges, it never adds
     any. So Delay verdicts stay cacheable under a version stamp, and
     the version is the wake epoch. *)
  let version = ref 0 in
  let blocked_at = Array.make n (-1) in
  let blocked_idx = Array.make n (-1) in
  (* The one departure from SGT: candidate edge sources are the prior
     accessors whose op does NOT commute with the step's. On a pure rw
     syntax every pair conflicts and this filter is the identity —
     pinned decision-for-decision against SGT in the tests. *)
  let conflicting_sources op hist =
    List.filter_map
      (fun (u, o) -> if Commute.conflicts o op then Some u else None)
      hist
  in
  let attempt (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    if blocked_idx.(tx) = idx && blocked_at.(tx) = !version then
      Scheduler.Delay
    else begin
      let op = op_of_step.(tx).(idx) in
      let sources =
        conflicting_sources op history.(var_of_step.(tx).(idx))
      in
      if
        Digraph.Acyclic.closes_cycle_any ~excluding:tx graph ~sources
          ~target:tx
      then begin
        blocked_idx.(tx) <- idx;
        blocked_at.(tx) <- !version;
        if Obs.Sink.on sink then
          Obs.Sink.record sink (Obs.Event.Cycle_refused { tx; idx });
        Scheduler.Delay
      end
      else Scheduler.Grant
    end
  in
  let forget i =
    incr version;
    for v = 0 to Array.length history - 1 do
      if List.exists (fun (u, _) -> u = i) history.(v) then
        history.(v) <- List.filter (fun (u, _) -> u <> i) history.(v)
    done;
    active.(i) <- false;
    Digraph.Acyclic.remove_vertex graph i
  in
  let rec prune () =
    let victim = ref None in
    for i = 0 to n - 1 do
      if
        !victim = None && completed.(i) && active.(i)
        && Digraph.Acyclic.in_degree graph i = 0
      then victim := Some i
    done;
    match !victim with
    | Some i ->
      forget i;
      prune ()
    | None -> ()
  in
  let rec add_edges tx = function
    | [] -> ()
    | u :: us ->
      if u <> tx then begin
        match Digraph.Acyclic.add_edge_acyclic graph u tx with
        | Ok () ->
          if Obs.Sink.on sink then
            Obs.Sink.record sink (Obs.Event.Edge_added { src = u; dst = tx })
        | Error _ ->
          (* [attempt] vetted the whole batch; an edge cannot fail here *)
          assert false
      end;
      add_edges tx us
  in
  let commit (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    let v = var_of_step.(tx).(idx) in
    let op = op_of_step.(tx).(idx) in
    (* A repeat (tx, op) access adds no edge, by {!Sgt}'s argument:
       every conflicting accessor already has an edge to or from [tx],
       and [attempt] has just ruled out the direction out of [tx]. *)
    let repeat = List.exists (fun (u, o) -> u = tx && o = op) history.(v) in
    if not repeat then add_edges tx (conflicting_sources op history.(v));
    if Obs.Sink.on sink then begin
      (* accesses of other transactions this grant did not serialize
         against — the coordination the commutativity table saved *)
      let skipped =
        List.length
          (List.filter
             (fun (u, o) -> u <> tx && not (Commute.conflicts o op))
             history.(v))
      in
      if skipped > 0 then
        Obs.Sink.record sink (Obs.Event.Commute_pass { tx; idx; skipped })
    end;
    if not repeat then history.(v) <- (tx, op) :: history.(v);
    active.(tx) <- true;
    if idx = fmt.(tx) - 1 then begin
      completed.(tx) <- true;
      prune ()
    end
  in
  let on_abort i =
    completed.(i) <- false;
    forget i
  in
  (* Lazy deadlock handling exactly as in {!Sgt}: a delayed request
     blocks nobody, so eager aborts only thrash restarts. *)
  Scheduler.make ~name:"semantic" ~attempt ~commit ~on_abort
    ~epoch:(fun () -> !version) ()
