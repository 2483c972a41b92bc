open Core

let create ?(sink = Obs.Sink.null) ~syntax () =
  let fmt = Syntax.format syntax in
  let n = Syntax.n_transactions syntax in
  (* Intern variable names once: the hot path is integer-only, no string
     hashing per request. [var_of_step.(i).(j)] is the index of the
     variable transaction [i]'s step [j] accesses. *)
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
  (* per-variable accessor lists. Deduplicated: a transaction touching
     the same variable k times contributes one entry, not k — duplicate
     entries would only ever duplicate edges already in the graph. *)
  let history = Array.make !nvars [] in
  (* [active.(i)]: transaction i has at least one history entry — the
     O(1) stand-in for scanning every accessor list during [prune] *)
  let active = Array.make n false in
  let graph = Digraph.Acyclic.create n in
  let completed = Array.make n false in
  (* Delay answers are monotone: between removals (abort or prune), the
     graph and the accessor lists only grow, and growing either can
     never turn a cycle-closing request into a grantable one. So a
     Delay verdict for (tx, idx) stays valid until the next removal.
     [version] counts removals and is the scheduler's wake epoch: the
     driver parks a delayed request until it moves. The private cache
     below answers the re-asks that still come — [Sim.Des] polls every
     delayed request after each grant — from the version stamp instead
     of repeating the search. *)
  let version = ref 0 in
  let blocked_at = Array.make n (-1) in
  let blocked_idx = Array.make n (-1) in
  (* The hot path: granting [id] adds edges u -> id.tx for every prior
     accessor u of the variable. All candidate edges end at the same
     vertex, so the batch closes a cycle iff some u is reachable from
     id.tx — one bounded search on the incrementally maintained order,
     no copy, no full cycle detection, no allocation. *)
  let attempt (id : Names.step_id) =
    let tx = id.Names.tx in
    let idx = id.Names.idx in
    if blocked_idx.(tx) = idx && blocked_at.(tx) = !version then
      Scheduler.Delay
    else if
      Digraph.Acyclic.closes_cycle_any ~excluding:tx graph
        ~sources:history.(var_of_step.(tx).(idx))
        ~target:tx
    then begin
      blocked_idx.(tx) <- idx;
      blocked_at.(tx) <- !version;
      (* only fresh graph searches emit: cached re-verdicts are answered
         from the version stamp above without touching the graph *)
      if Obs.Sink.on sink then
        Obs.Sink.record sink (Obs.Event.Cycle_refused { tx; idx });
      Scheduler.Delay
    end
    else Scheduler.Grant
  in
  let forget i =
    incr version;
    for v = 0 to Array.length history - 1 do
      if List.memq i history.(v) then
        history.(v) <- List.filter (fun u -> u <> i) history.(v)
    done;
    active.(i) <- false;
    Digraph.Acyclic.remove_vertex graph i
  in
  (* A completed transaction never receives another incoming edge, so
     once it is a source of the conflict graph it can never lie on a
     cycle: prune it. Without pruning a long-running workload saturates
     the graph and every new request eventually closes a cycle. *)
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
  (* A repeat access adds no edge. Every other accessor u of [v] met
     [tx] there before, so u -> tx or tx -> u is already in the graph,
     and [attempt] has just ruled out any path tx ~> u: each u -> tx is
     present, and the batch would only re-find it. *)
  let commit (id : Names.step_id) =
    let tx = id.Names.tx in
    let v = var_of_step.(tx).(id.Names.idx) in
    if not (List.memq tx history.(v)) then begin
      add_edges tx history.(v);
      history.(v) <- tx :: history.(v)
    end;
    active.(tx) <- true;
    if id.Names.idx = fmt.(tx) - 1 then begin
      completed.(tx) <- true;
      prune ()
    end
  in
  let on_abort i =
    completed.(i) <- false;
    forget i
  in
  (* No eager [detect]: under SGT a delayed request can never be granted
     until someone aborts (edges and accessor lists only grow), but it
     also blocks nobody — every other transaction keeps executing — so an
     abort is never *required* until the whole system stalls, and the
     stall path already resolves that lazily, wound-wait style. Eagerly
     aborting each freshly-doomed requester replays it straight back into
     the same conflicts and thrashes restarts a thousandfold on contended
     workloads, where the lazy policy pays a handful. *)
  Scheduler.make ~name:"SGT" ~attempt ~commit ~on_abort
    ~epoch:(fun () -> !version) ()
