open Core

let cycle_victim ~holders ~wanted blocked =
  (* build the wait-for relation among blocked transactions and pick a
     member of a cycle if any; prefer the member earliest in [blocked],
     which the driver orders youngest-first (wound-wait seniority) *)
  match blocked with
  | [] -> None
  | _ ->
    let idx = List.mapi (fun k i -> (i, k)) blocked in
    let n = List.length blocked in
    let g = Digraph.create n in
    List.iter
      (fun (i, k) ->
        match wanted i with
        | None -> ()
        | Some x -> (
          match holders x with
          | Some j when j <> i -> (
            match List.assoc_opt j idx with
            | Some k' -> Digraph.add_edge g k k'
            | None -> ())
          | Some _ | None -> ()))
      idx;
    (match Digraph.find_cycle g with
    | Some (_ :: _ as cyc) ->
      Some (List.nth blocked (List.fold_left min max_int cyc))
    | Some [] | None -> None)

let wait_for_victim ~holders ~wanted blocked =
  match cycle_victim ~holders ~wanted blocked with
  | Some v -> Some v
  | None -> (match blocked with [] -> None | first :: _ -> Some first)

let create ?(sink = Obs.Sink.null) ~policy ~syntax () =
  let locked = policy.Locking.Policy.apply syntax in
  let txs = locked.Locking.Locked.txs in
  let n = Array.length txs in
  let position = Array.make n 0 in  (* progress in the locked program *)
  let holder : (Locking.Locked.lock_var, int) Hashtbl.t = Hashtbl.create 16 in
  let held_by i x =
    match Hashtbl.find_opt holder x with Some j -> j = i | None -> false
  in
  let free_or_mine i x =
    match Hashtbl.find_opt holder x with Some j -> j = i | None -> true
  in
  (* the segment of lock/unlock steps before transaction i's next action *)
  let rec segment i p acc =
    if p >= Array.length txs.(i) then List.rev acc
    else
      match txs.(i).(p) with
      | Locking.Locked.Action _ -> List.rev acc
      | (Locking.Locked.Lock _ | Locking.Locked.Unlock _) as s ->
        segment i (p + 1) (s :: acc)
  in
  let rec next_action_pos i p =
    if p >= Array.length txs.(i) then None
    else
      match txs.(i).(p) with
      | Locking.Locked.Action _ -> Some p
      | Locking.Locked.Lock _ | Locking.Locked.Unlock _ ->
        next_action_pos i (p + 1)
  in
  let is_last_action i p =
    next_action_pos i (p + 1) = None
  in
  (* every lock step the grant of the next action would have to take:
     its leading segment, plus — for the transaction's final action —
     the whole trailing protocol (2PL' ends with a lock X' step that
     must not be left dangling) *)
  let locks_needed i =
    match next_action_pos i position.(i) with
    | None -> []
    | Some ap ->
      let tail =
        if is_last_action i ap then
          Array.to_list (Array.sub txs.(i) ap (Array.length txs.(i) - ap))
        else []
      in
      segment i position.(i) [] @ tail
  in
  (* the first lock another transaction holds, if any: the wait-for edge *)
  let blocking_lock i =
    List.find_map
      (function
        | Locking.Locked.Lock x when not (free_or_mine i x) -> Some x
        | Locking.Locked.Lock _ | Locking.Locked.Unlock _ | Locking.Locked.Action _ -> None)
      (locks_needed i)
  in
  (* The wake epoch: a request is delayed by a lock another transaction
     holds, and acquisitions only add holders, so the verdict can change
     only when a lock is released (an unlock or an abort). *)
  let releases = ref 0 in
  let attempt (id : Names.step_id) =
    match blocking_lock id.Names.tx with
    | Some _ -> Scheduler.Delay
    | None -> Scheduler.Grant
  in
  let exec i s =
    (match s with
    | Locking.Locked.Lock x ->
      Hashtbl.replace holder x i;
      if Obs.Sink.on sink then
        Obs.Sink.record sink (Obs.Event.Lock_acquired { tx = i; lock = x })
    | Locking.Locked.Unlock x ->
      if held_by i x then begin
        Hashtbl.remove holder x;
        incr releases;
        if Obs.Sink.on sink then
          Obs.Sink.record sink (Obs.Event.Lock_released { tx = i; lock = x })
      end
    | Locking.Locked.Action _ -> ());
    position.(i) <- position.(i) + 1
  in
  let commit (id : Names.step_id) =
    let i = id.Names.tx in
    (* run the segment, the action, then the trailing steps: everything
       for a final action, else just the eager unlock run *)
    List.iter (exec i) (segment i position.(i) []);
    let last =
      match txs.(i).(position.(i)) with
      | Locking.Locked.Action id' when Names.equal_step id id' ->
        let last = is_last_action i position.(i) in
        exec i (Locking.Locked.Action id');
        last
      | _ -> invalid_arg "Tpl_sched: commit out of order"
    in
    if last then
      while position.(i) < Array.length txs.(i) do
        exec i txs.(i).(position.(i))
      done
    else begin
      let continue = ref true in
      while !continue && position.(i) < Array.length txs.(i) do
        match txs.(i).(position.(i)) with
        | Locking.Locked.Unlock _ as s -> exec i s
        | Locking.Locked.Lock _ | Locking.Locked.Action _ -> continue := false
      done
    end
  in
  let on_abort i =
    incr releases;
    position.(i) <- 0;
    Hashtbl.filter_map_inplace
      (fun _ j -> if j = i then None else Some j)
      holder
  in
  let wound = function
    | Some v as r ->
      if Obs.Sink.on sink then
        Obs.Sink.record sink (Obs.Event.Wound { victim = v });
      r
    | None -> None
  in
  let victim blocked =
    wound
      (wait_for_victim
         ~holders:(fun x -> Hashtbl.find_opt holder x)
         ~wanted:blocking_lock blocked)
  in
  let detect blocked =
    wound
      (cycle_victim
         ~holders:(fun x -> Hashtbl.find_opt holder x)
         ~wanted:blocking_lock (List.map fst blocked))
  in
  Scheduler.make
    ~name:("LRS[" ^ policy.Locking.Policy.name ^ "]")
    ~attempt ~commit ~on_abort ~victim ~detect
    ~epoch:(fun () -> !releases) ()

let create_2pl ?sink ~syntax () =
  create ?sink ~policy:Locking.Two_phase.policy ~syntax ()
