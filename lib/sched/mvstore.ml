open Core

type version = { value : int; writer : int; ts : int }

type txn = {
  id : int;
  snap : int;
  mutable reads : Names.Vset.t;
  mutable writes : (Names.var * int) list; (* newest first *)
  mutable commit_ts : int option;
  mutable in_rw : bool;
  mutable out_rw : bool;
}

type t = {
  chains : (Names.var, version list ref) Hashtbl.t; (* newest first *)
  mutable clock : int;
  mutable fresh : int;
  live : (int, txn) Hashtbl.t;
  mutable pins : int array; (* pins.(s): live transactions with snap = s *)
  mutable s_min : int; (* no live snapshot is below it; forward-only *)
  superseded : (int * Names.var) Queue.t;
      (* (ts, x): a commit at ts installed a version of x over an older
         one, which becomes unreachable once s_min >= ts; ts-ordered *)
  retained : txn Queue.t; (* committed, commit_ts > s_min; commit order *)
  retained_by_id : (int, txn) Hashtbl.t;
  readers : (Names.var, txn list ref) Hashtbl.t;
      (* live and retained transactions that read the variable from
         the store, plus expired ones not yet dropped (see [expired]) *)
}

let initial_value = 0

let create () =
  {
    chains = Hashtbl.create 64;
    clock = 0;
    fresh = initial_value;
    live = Hashtbl.create 16;
    pins = Array.make 16 0;
    s_min = 0;
    superseded = Queue.create ();
    retained = Queue.create ();
    retained_by_id = Hashtbl.create 16;
    readers = Hashtbl.create 64;
  }

let clock st = st.clock

let chain st x =
  match Hashtbl.find st.chains x with r -> !r | exception Not_found -> []

let newest st x = match chain st x with v :: _ -> Some v | [] -> None

(* A committed reader at or before [s_min] is concurrent with no
   snapshot any more. Such entries leave the reader index lazily, when
   their variable's list is next rewritten; queries skip them anyway,
   since only a commit after the querying snapshot is concurrent. *)
let expired st u =
  match u.commit_ts with Some c -> c <= st.s_min | None -> false

let unregister_reads st t =
  Names.Vset.iter
    (fun x ->
      match Hashtbl.find_opt st.readers x with
      | Some r -> r := List.filter (fun u -> u != t && not (expired st u)) !r
      | None -> ())
    t.reads

let pin st snap delta =
  if snap >= Array.length st.pins then begin
    let a = Array.make (2 * (snap + 1)) 0 in
    Array.blit st.pins 0 a 0 (Array.length st.pins);
    st.pins <- a
  end;
  st.pins.(snap) <- st.pins.(snap) + delta

(* End [t]'s live incarnation: it no longer pins its snapshot. *)
let end_live st t =
  Hashtbl.remove st.live t.id;
  pin st t.snap (-1)

let live_txn st id = Hashtbl.find_opt st.live id
let retained_txn st id = Hashtbl.find_opt st.retained_by_id id
let snapshot t = t.snap
let commit_ts t = t.commit_ts

(* Newest committed version visible at snapshot [snap]; the store is
   born with every variable at [initial_value] (timestamp 0). *)
let read_at st x ~snap =
  let rec visible = function
    | [] -> initial_value
    | v :: rest -> if v.ts <= snap then v.value else visible rest
  in
  visible (chain st x)

let read st t x =
  match List.assoc_opt x t.writes with
  | Some v -> (v, None) (* own buffered write; not an antidependency source *)
  | None ->
    if not (Names.Vset.mem x t.reads) then begin
      t.reads <- Names.Vset.add x t.reads;
      match Hashtbl.find_opt st.readers x with
      | Some r -> r := t :: List.filter (fun u -> not (expired st u)) !r
      | None -> Hashtbl.add st.readers x (ref [ t ])
    end;
    let rec visible = function
      | [] -> (initial_value, None)
      | v :: rest ->
        if v.ts <= t.snap then (v.value, Some v.writer) else visible rest
    in
    visible (chain st x)

let write st t x =
  st.fresh <- st.fresh + 1;
  t.writes <- (x, st.fresh) :: t.writes;
  st.fresh

(* Chains are newest-first, so the versions newer than [than] are a
   prefix: every walk below stops at the first one at or before it. *)
let exists_newer_writer st x ~than ~excluding p =
  let rec walk = function
    | v :: rest when v.ts > than ->
      (v.writer <> excluding && p v.writer) || walk rest
    | _ -> false
  in
  walk (chain st x)

(* Readers of [x] concurrent with [snap]: live, or committed after it.
   Expired entries fail the test, since [snap] is at least [s_min]. *)
let exists_concurrent_reader st x ~snap ~excluding p =
  match Hashtbl.find st.readers x with
  | exception Not_found -> false
  | r ->
    List.exists
      (fun u ->
        u.id <> excluding
        && (match u.commit_ts with None -> true | Some c -> c > snap)
        && p u)
      !r

(* First-committer-wins: does any variable in [vars] carry a committed
   version newer than [snap] installed by someone else? Pure query. *)
let ww_conflict st ~snap ~excluding vars =
  List.find_opt
    (fun x -> exists_newer_writer st x ~than:snap ~excluding (fun _ -> true))
    vars

(* Distinct writers of committed versions of [x] newer than [than] —
   the rw-antidependency targets of a transaction that read [x] under
   snapshot [than]. Pure query. *)
let newer_writers st x ~than ~excluding =
  let rec walk acc = function
    | v :: rest when v.ts > than ->
      walk (if v.writer <> excluding then v.writer :: acc else acc) rest
    | _ -> acc
  in
  List.sort_uniq Int.compare (walk [] (chain st x))

(* The minimum live snapshot. Every snapshot is pinned at the clock,
   which never falls below [s_min], so the pointer only moves forward:
   amortised O(1) over a run. With nothing live it is the clock. *)
let advance_s_min st =
  if Hashtbl.length st.live = 0 then st.s_min <- st.clock
  else
    while st.pins.(st.s_min) = 0 do
      st.s_min <- st.s_min + 1
    done

let min_live_snapshot st =
  if Hashtbl.length st.live = 0 then None
  else begin
    advance_s_min st;
    Some st.s_min
  end

(* Garbage collection: once no live snapshot can reach a version (a
   newer committed version is itself at or below every live snapshot),
   drop it; retained committed transaction records go the same way once
   nothing live is concurrent with them.

   Only chains named by a [superseded] entry at or below [s_min] can
   hold a dead version — any version below the newest one at or below
   [s_min] was superseded by a commit at a timestamp at or below
   [s_min] — so popping those entries and trimming their chains leaves
   every chain exactly as a sweep of all of them would.

   With no live snapshot at all, [s_min] is the current clock. That
   must never empty a chain: the next [begin_txn] pins [snap = clock],
   and its reads walk the chain for the newest version at or below
   that. Every committed version satisfies [ts <= clock], so [keep]
   always retains the head version per variable — exactly the one a
   post-prune snapshot reads. *)
let prune st =
  advance_s_min st;
  let s_min = st.s_min in
  while
    (not (Queue.is_empty st.superseded))
    && fst (Queue.peek st.superseded) <= s_min
  do
    let _, x = Queue.pop st.superseded in
    let r = Hashtbl.find st.chains x in
    let rec keep = function
      | [] -> []
      | v :: rest ->
        if v.ts <= s_min then [ v ] (* newest reachable; older ones dead *)
        else v :: keep rest
    in
    r := keep !r
  done;
  while
    (not (Queue.is_empty st.retained))
    && Option.get (Queue.peek st.retained).commit_ts <= s_min
  do
    let t = Queue.pop st.retained in
    match Hashtbl.find_opt st.retained_by_id t.id with
    | Some u when u == t -> Hashtbl.remove st.retained_by_id t.id
    | _ -> ()
  done

(* A live incarnation that ends without committing: it stops pinning
   its snapshot and leaves the reader index. *)
let drop st t =
  end_live st t;
  unregister_reads st t;
  prune st

let begin_txn st id =
  (* restarting a live id ends the incarnation it replaces *)
  Option.iter (drop st) (Hashtbl.find_opt st.live id);
  let txn =
    {
      id;
      snap = st.clock;
      reads = Names.Vset.empty;
      writes = [];
      commit_ts = None;
      in_rw = false;
      out_rw = false;
    }
  in
  Hashtbl.replace st.live id txn;
  pin st txn.snap 1;
  txn

let commit st t =
  (match Hashtbl.find_opt st.live t.id with
  | Some u when u == t -> ()
  | _ -> invalid_arg "Mvstore.commit: transaction is not live");
  st.clock <- st.clock + 1;
  let ts = st.clock in
  t.commit_ts <- Some ts;
  (* newest buffered value per variable wins (writes is newest-first) *)
  let seen = ref Names.Vset.empty in
  List.iter
    (fun (x, value) ->
      if not (Names.Vset.mem x !seen) then begin
        seen := Names.Vset.add x !seen;
        let r =
          match Hashtbl.find_opt st.chains x with
          | Some r ->
            Queue.push (ts, x) st.superseded;
            r
          | None ->
            let r = ref [] in
            Hashtbl.add st.chains x r;
            r
        in
        r := { value; writer = t.id; ts } :: !r
      end)
    t.writes;
  end_live st t;
  Queue.push t st.retained;
  Hashtbl.replace st.retained_by_id t.id t;
  prune st;
  ts

let abort st t =
  match Hashtbl.find_opt st.live t.id with
  | Some u when u == t -> drop st t
  | _ -> ()
