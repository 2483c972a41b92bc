open Core

type t = {
  sink : Obs.Sink.t;
  label : int array;
  conflicts : int array array;
  accessors : int list array;  (** per slot, newest first *)
  slots_of : int list array;
      (** per vertex, the slots it is an accessor of: [forget] visits
          only these *)
  completed : bool array;
  graph : Digraph.Acyclic.t;
  mutable removals : int;
}

let create ?(sink = Obs.Sink.null) ?label ~n ~conflicts () =
  {
    sink;
    label = (match label with Some l -> l | None -> Array.init n Fun.id);
    conflicts;
    accessors = Array.make (Array.length conflicts) [];
    slots_of = Array.make n [];
    completed = Array.make n false;
    graph = Digraph.Acyclic.create n;
    removals = 0;
  }

let same_slot k = Array.init k (fun s -> [| s |])

let var_slots syntax =
  let ids = Hashtbl.create 16 in
  let slot_of_step =
    Array.mapi
      (fun i m ->
        Array.init m (fun j ->
            let v = Syntax.var syntax (Names.step i j) in
            match Hashtbl.find_opt ids v with
            | Some s -> s
            | None ->
              let s = Hashtbl.length ids in
              Hashtbl.add ids v s;
              s))
      (Syntax.format syntax)
  in
  (slot_of_step, Hashtbl.length ids)

let removals t = t.removals
let accessors t slot = t.accessors.(slot)
let active t v = t.slots_of.(v) <> []

let rec any_accessor t among k =
  k < Array.length among
  && (t.accessors.(among.(k)) <> [] || any_accessor t among (k + 1))

let reaches_sources t ~excluding v slot =
  Digraph.Acyclic.closes_cycle_among ~excluding t.graph ~lists:t.accessors
    ~among:t.conflicts.(slot) ~target:v

let new_paths t v slot ~vertices ~ids =
  if not (any_accessor t t.conflicts.(slot) 0) then ([], [])
  else begin
    let a = ref [] and b = ref [] in
    for k = 0 to Array.length vertices - 1 do
      let u = vertices.(k) in
      if u <> v && active t u then begin
        if reaches_sources t ~excluding:v u slot then a := ids.(k) :: !a;
        if Digraph.Acyclic.closes_cycle_any t.graph ~sources:[ u ] ~target:v
        then b := ids.(k) :: !b
      end
    done;
    (!a, !b)
  end

(* ---------- admission ---------- *)

(* Every candidate edge ends at [v], so the batch closes a cycle iff
   some source is reachable from [v]: one bounded search on the
   incrementally maintained order, no copy, no allocation. *)
let closes_cycle t v slot = reaches_sources t ~excluding:v v slot

let refuse t v idx =
  if Obs.Sink.on t.sink then
    Obs.Sink.record t.sink (Obs.Event.Cycle_refused { tx = t.label.(v); idx })

(* ---------- recording ---------- *)

let fresh t v slot = not (List.memq v t.accessors.(slot))

let rec add_edges t v = function
  | [] -> ()
  | u :: us ->
    if u <> v then begin
      match Digraph.Acyclic.add_edge_acyclic t.graph u v with
      | Ok () ->
        if Obs.Sink.on t.sink then
          Obs.Sink.record t.sink
            (Obs.Event.Edge_added { src = t.label.(u); dst = t.label.(v) })
      | Error _ ->
        (* the admission test vetted the whole batch *)
        assert false
    end;
    add_edges t v us

let record t v slot =
  if fresh t v slot then begin
    let among = t.conflicts.(slot) in
    for k = 0 to Array.length among - 1 do
      add_edges t v t.accessors.(among.(k))
    done;
    t.accessors.(slot) <- v :: t.accessors.(slot);
    t.slots_of.(v) <- slot :: t.slots_of.(v)
  end

(* each accessor list holds a vertex at most once *)
let rec drop v = function
  | [] -> []
  | u :: us -> if u = v then us else u :: drop v us

let forget t v =
  t.removals <- t.removals + 1;
  List.iter (fun s -> t.accessors.(s) <- drop v t.accessors.(s)) t.slots_of.(v);
  t.slots_of.(v) <- [];
  Digraph.Acyclic.remove_vertex t.graph v

let rec victim t v =
  if v = Array.length t.completed then -1
  else if
    t.completed.(v) && active t v && Digraph.Acyclic.in_degree t.graph v = 0
  then v
  else victim t (v + 1)

let rec prune t =
  let v = victim t 0 in
  if v >= 0 then begin
    forget t v;
    prune t
  end

let finish t v =
  t.completed.(v) <- true;
  prune t

let abort t v =
  t.completed.(v) <- false;
  forget t v

(* ---------- scheduler ---------- *)

let scheduler ~name ?on_commit t ~slot_of_step ~fmt =
  let attempt (id : Names.step_id) =
    let v = id.Names.tx in
    let idx = id.Names.idx in
    if closes_cycle t v slot_of_step.(v).(idx) then begin
      refuse t v idx;
      Scheduler.Delay
    end
    else Scheduler.Grant
  in
  let commit (id : Names.step_id) =
    let v = id.Names.tx in
    let slot = slot_of_step.(v).(id.Names.idx) in
    record t v slot;
    (match on_commit with Some f -> f id slot | None -> ());
    if id.Names.idx = fmt.(v) - 1 then finish t v
  in
  Scheduler.make ~name ~attempt ~commit ~on_abort:(abort t)
    ~epoch:(fun () -> t.removals)
    ()
