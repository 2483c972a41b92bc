open Core

(* The original copy-and-recheck SGT: every admission test copies the
   whole conflict graph and reruns full cycle detection, and the
   per-variable history keeps one entry per access (duplicates
   included). Kept verbatim as the differential-testing oracle for the
   incremental implementation in [Sgt]. *)

let create ~syntax =
  let fmt = Syntax.format syntax in
  let n = Syntax.n_transactions syntax in
  (* per-variable access history (transaction ids, oldest first) *)
  let history : (Names.var, int list) Hashtbl.t = Hashtbl.create 16 in
  let graph = ref (Digraph.create n) in
  let completed = Array.make n false in
  let accessors v = try Hashtbl.find history v with Not_found -> [] in
  let edges_for (id : Names.step_id) =
    accessors (Syntax.var syntax id)
    |> List.filter_map (fun tx ->
           if tx <> id.Names.tx then Some (tx, id.Names.tx) else None)
  in
  let attempt id =
    let g = Digraph.copy !graph in
    List.iter (fun (u, v) -> Digraph.add_edge g u v) (edges_for id);
    if Digraph.has_cycle g then Scheduler.Delay else Scheduler.Grant
  in
  let rebuild () =
    let g = Digraph.create n in
    Hashtbl.iter
      (fun _ txs ->
        let rec pairs = function
          | [] -> ()
          | tx :: rest ->
            List.iter
              (fun tx' -> if tx' <> tx then Digraph.add_edge g tx tx')
              rest;
            pairs rest
        in
        pairs txs)
      history;
    graph := g
  in
  (* removals, the wake epoch: between two of them the graph and the
     histories only grow, so a cycle-closing request stays refused *)
  let removals = ref 0 in
  let forget i =
    incr removals;
    Hashtbl.filter_map_inplace
      (fun _ txs ->
        match List.filter (fun tx -> tx <> i) txs with
        | [] -> None
        | txs -> Some txs)
      history;
    rebuild ()
  in
  (* A completed transaction never receives another incoming edge, so
     once it is a source of the conflict graph it can never lie on a
     cycle: prune it. Without pruning a long-running workload saturates
     the graph and every new request eventually closes a cycle. *)
  let rec prune () =
    let victim = ref None in
    for i = 0 to n - 1 do
      if
        !victim = None && completed.(i)
        && Digraph.pred !graph i = []
        && Hashtbl.fold
             (fun _ txs any -> any || List.mem i txs)
             history false
      then victim := Some i
    done;
    match !victim with
    | Some i ->
      forget i;
      prune ()
    | None -> ()
  in
  let commit (id : Names.step_id) =
    List.iter (fun (u, v) -> Digraph.add_edge !graph u v) (edges_for id);
    let v = Syntax.var syntax id in
    Hashtbl.replace history v (accessors v @ [ id.Names.tx ]);
    if id.Names.idx = fmt.(id.Names.tx) - 1 then begin
      completed.(id.Names.tx) <- true;
      prune ()
    end
  in
  let on_abort i =
    completed.(i) <- false;
    forget i
  in
  (* No eager [detect], mirroring [Sgt]: a delayed request is doomed
     until an abort but blocks nobody, so victim selection is left to the
     lazy stall path. *)
  Scheduler.make ~name:"SGT-ref" ~attempt ~commit ~on_abort
    ~epoch:(fun () -> !removals) ()
