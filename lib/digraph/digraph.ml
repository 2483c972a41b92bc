module Iset = Set.Make (Int)

type t = { n : int; mutable adj : Iset.t array }

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  { n; adj = Array.make n Iset.empty }

let n_vertices g = g.n

let check g u =
  if u < 0 || u >= g.n then invalid_arg "Digraph: vertex out of range"

let add_edge g u v =
  check g u;
  check g v;
  g.adj.(u) <- Iset.add v g.adj.(u)

let remove_edge g u v =
  check g u;
  check g v;
  g.adj.(u) <- Iset.remove v g.adj.(u)

let has_edge g u v =
  check g u;
  check g v;
  Iset.mem v g.adj.(u)

let succ g u =
  check g u;
  Iset.elements g.adj.(u)

let pred g v =
  check g v;
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    if Iset.mem v g.adj.(u) then acc := u :: !acc
  done;
  !acc

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    Iset.fold (fun v l -> (u, v) :: l) g.adj.(u) []
    |> List.iter (fun e -> acc := e :: !acc)
  done;
  List.sort compare !acc

let n_edges g = Array.fold_left (fun acc s -> acc + Iset.cardinal s) 0 g.adj

let copy g = { n = g.n; adj = Array.copy g.adj }

(* DFS colouring: 0 = white, 1 = grey (on stack), 2 = black. *)
let has_cycle g =
  let colour = Array.make g.n 0 in
  let rec visit u =
    colour.(u) <- 1;
    let cyc =
      Iset.exists
        (fun v -> colour.(v) = 1 || (colour.(v) = 0 && visit v))
        g.adj.(u)
    in
    colour.(u) <- 2;
    cyc
  in
  let rec scan u =
    if u >= g.n then false
    else if colour.(u) = 0 && visit u then true
    else scan (u + 1)
  in
  scan 0

let topological_sort g =
  let indeg = Array.make g.n 0 in
  Array.iter (fun s -> Iset.iter (fun v -> indeg.(v) <- indeg.(v) + 1) s) g.adj;
  (* min-heap substitute: a sorted set of ready vertices for determinism *)
  let ready = ref Iset.empty in
  for u = 0 to g.n - 1 do
    if indeg.(u) = 0 then ready := Iset.add u !ready
  done;
  let order = Array.make g.n 0 in
  let filled = ref 0 in
  while not (Iset.is_empty !ready) do
    let u = Iset.min_elt !ready in
    ready := Iset.remove u !ready;
    order.(!filled) <- u;
    incr filled;
    Iset.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then ready := Iset.add v !ready)
      g.adj.(u)
  done;
  if !filled = g.n then Some order else None

let scc g =
  (* Tarjan's algorithm, iterative to be safe on large graphs. *)
  let index = Array.make g.n (-1) in
  let lowlink = Array.make g.n 0 in
  let on_stack = Array.make g.n false in
  let comp = Array.make g.n (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let rec strong u =
    index.(u) <- !next_index;
    lowlink.(u) <- !next_index;
    incr next_index;
    Stack.push u stack;
    on_stack.(u) <- true;
    Iset.iter
      (fun v ->
        if index.(v) < 0 then begin
          strong v;
          lowlink.(u) <- min lowlink.(u) lowlink.(v)
        end
        else if on_stack.(v) then lowlink.(u) <- min lowlink.(u) index.(v))
      g.adj.(u);
    if lowlink.(u) = index.(u) then begin
      let continue = ref true in
      while !continue do
        let w = Stack.pop stack in
        on_stack.(w) <- false;
        comp.(w) <- !next_comp;
        if w = u then continue := false
      done;
      incr next_comp
    end
  in
  for u = 0 to g.n - 1 do
    if index.(u) < 0 then strong u
  done;
  comp

let find_cycle g =
  let colour = Array.make g.n 0 in
  let parent = Array.make g.n (-1) in
  let result = ref None in
  let rec visit u =
    colour.(u) <- 1;
    Iset.iter
      (fun v ->
        if !result = None then
          if colour.(v) = 1 then begin
            (* found a back edge u -> v: walk parents from u back to v *)
            let rec collect w acc =
              if w = v then v :: acc else collect parent.(w) (w :: acc)
            in
            result := Some (collect u [])
          end
          else if colour.(v) = 0 then begin
            parent.(v) <- u;
            visit v
          end)
      g.adj.(u);
    colour.(u) <- 2
  in
  let u = ref 0 in
  while !result = None && !u < g.n do
    if colour.(!u) = 0 then visit !u;
    incr u
  done;
  !result

let reachable g u =
  check g u;
  let seen = Array.make g.n false in
  let rec visit w =
    if not seen.(w) then begin
      seen.(w) <- true;
      Iset.iter visit g.adj.(w)
    end
  in
  visit u;
  seen

let transitive_closure g =
  let closure = create g.n in
  for u = 0 to g.n - 1 do
    let seen = Array.make g.n false in
    let rec visit w =
      Iset.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            add_edge closure u v;
            visit v
          end)
        g.adj.(w)
    in
    visit u
  done;
  closure

let undirected_components g =
  let comp = Array.make g.n (-1) in
  let sym = Array.make g.n Iset.empty in
  for u = 0 to g.n - 1 do
    Iset.iter
      (fun v ->
        sym.(u) <- Iset.add v sym.(u);
        sym.(v) <- Iset.add u sym.(v))
      g.adj.(u)
  done;
  let next = ref 0 in
  let rec visit c u =
    if comp.(u) < 0 then begin
      comp.(u) <- c;
      Iset.iter (visit c) sym.(u)
    end
  in
  for u = 0 to g.n - 1 do
    if comp.(u) < 0 then begin
      visit !next u;
      incr next
    end
  done;
  comp

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph(%d) {" g.n;
  List.iter (fun (u, v) -> Format.fprintf ppf "@ %d -> %d;" u v) (edges g);
  Format.fprintf ppf "@ }@]"

(* ---------- online acyclicity (Pearce–Kelly) ---------- *)

type graph = t

module Acyclic = struct
  (* Internals are tuned for the SGT hot path: adjacency is duplicate-free
     int lists (degrees are tiny; list traversal beats balanced-tree
     iteration and insertion allocates one cons), and every search uses
     epoch-stamped scratch arrays, so queries and edge insertions
     allocate nothing beyond the witness on rejection. *)
  type t = {
    nv : int;
    out_ : int list array;
    in_ : int list array;
    ord : int array;   (* vertex -> index in the maintained topo order *)
    back : int array;  (* index -> vertex (inverse of [ord]) *)
    mutable ne : int;
    want : int array;    (* scratch: source marks, by epoch *)
    seen : int array;    (* scratch: forward-search marks, by epoch *)
    seen_b : int array;  (* scratch: backward-search marks, by epoch *)
    parent : int array;  (* scratch: witness-path links *)
    mat : Bytes.t;       (* nv*nv adjacency bitmap: O(1) edge membership *)
    mutable epoch : int;
  }

  let create nv =
    if nv < 0 then invalid_arg "Digraph.Acyclic.create: negative size";
    {
      nv;
      out_ = Array.make nv [];
      in_ = Array.make nv [];
      ord = Array.init nv Fun.id;
      back = Array.init nv Fun.id;
      ne = 0;
      want = Array.make nv 0;
      seen = Array.make nv 0;
      seen_b = Array.make nv 0;
      parent = Array.make nv (-1);
      mat = Bytes.make (nv * nv) '\000';
      epoch = 0;
    }

  let n_vertices g = g.nv
  let n_edges g = g.ne

  let check g u =
    if u < 0 || u >= g.nv then
      invalid_arg "Digraph.Acyclic: vertex out of range"

  let mem_edge g u v = Bytes.get g.mat ((u * g.nv) + v) <> '\000'

  let has_edge g u v =
    check g u;
    check g v;
    mem_edge g u v

  let succ g u =
    check g u;
    List.sort compare g.out_.(u)

  let pred g v =
    check g v;
    List.sort compare g.in_.(v)

  let in_degree g v =
    check g v;
    List.length g.in_.(v)

  let edges g =
    let acc = ref [] in
    for u = g.nv - 1 downto 0 do
      List.iter (fun v -> acc := (u, v) :: !acc) g.out_.(u)
    done;
    List.sort compare !acc

  let topological_order g = Array.copy g.back

  (* The search workers live at module level and take all state as
     arguments: one [closes_cycle_any] call allocates nothing, not even
     closures. *)
  let rec dfs g ep bound w =
    if g.seen.(w) = ep then false
    else begin
      g.seen.(w) <- ep;
      g.want.(w) = ep || dfs_list g ep bound g.out_.(w)
    end

  and dfs_list g ep bound = function
    | [] -> false
    | x :: xs ->
      (g.ord.(x) <= bound && dfs g ep bound x) || dfs_list g ep bound xs

  (* one pass over the sources: mark, bound, and spot self-loops (the
     [max_int] sentinel) *)
  let rec mark_sources g ep ~excluding ~target bound = function
    | [] -> bound
    | u :: us ->
      check g u;
      if u = excluding then mark_sources g ep ~excluding ~target bound us
      else if u = target then max_int
      else begin
        g.want.(u) <- ep;
        mark_sources g ep ~excluding ~target
          (if g.ord.(u) > bound then g.ord.(u) else bound)
          us
      end

  (* Because the maintained order is topological, every edge strictly
     increases [ord]; any path from [target] back to a source therefore
     stays inside the window [ord target, max ord source], which is what
     bounds the search. *)
  let closes_cycle_any ?(excluding = -1) g ~sources ~target =
    check g target;
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let bound = mark_sources g ep ~excluding ~target (-1) sources in
    bound = max_int
    || (bound >= g.ord.(target) && dfs g ep bound target)

  let rec mark_lists g ep ~excluding ~target bound lists among k =
    if k = Array.length among || bound = max_int then bound
    else
      mark_lists g ep ~excluding ~target
        (mark_sources g ep ~excluding ~target bound lists.(among.(k)))
        lists among (k + 1)

  let closes_cycle_among ?(excluding = -1) g ~lists ~among ~target =
    check g target;
    g.epoch <- g.epoch + 1;
    let ep = g.epoch in
    let bound =
      if Array.length among = 1 then
        mark_sources g ep ~excluding ~target (-1) lists.(among.(0))
      else mark_lists g ep ~excluding ~target (-1) lists among 0
    in
    bound = max_int
    || (bound >= g.ord.(target) && dfs g ep bound target)

  let closes_cycle g u v = closes_cycle_any g ~sources:[ u ] ~target:v

  let insert g u v =
    (* caller guarantees the edge is absent *)
    g.out_.(u) <- v :: g.out_.(u);
    g.in_.(v) <- u :: g.in_.(v);
    Bytes.set g.mat ((u * g.nv) + v) '\001';
    g.ne <- g.ne + 1

  let add_edge_acyclic g u v =
    check g u;
    check g v;
    if u = v then Error [ u ]
    else if mem_edge g u v then Ok ()
    else if g.ord.(u) < g.ord.(v) then begin
      insert g u v;
      Ok ()
    end
    else begin
      (* ord v < ord u: the affected region is the window [lb, ub] *)
      let lb = g.ord.(v) and ub = g.ord.(u) in
      g.epoch <- g.epoch + 1;
      let ep = g.epoch in
      let hit = ref false in
      (* forward from v, restricted to the window; delta-F on success *)
      let rec fwd w =
        if not !hit then begin
          g.seen.(w) <- ep;
          List.iter
            (fun x ->
              if (not !hit) && g.ord.(x) <= ub && g.seen.(x) <> ep then begin
                g.parent.(x) <- w;
                if x = u then begin
                  g.seen.(x) <- ep;
                  hit := true
                end
                else fwd x
              end)
            g.out_.(w)
        end
      in
      fwd v;
      if !hit then begin
        (* path v -> ... -> u exists; the new edge u -> v closes it *)
        let rec walk w acc =
          if w = v then v :: acc else walk g.parent.(w) (w :: acc)
        in
        Error (walk u [])
      end
      else begin
        (* delta-B: everything reaching u inside the window *)
        let rec bwd w =
          if g.seen_b.(w) <> ep then begin
            g.seen_b.(w) <- ep;
            List.iter (fun x -> if g.ord.(x) >= lb then bwd x) g.in_.(w)
          end
        in
        bwd u;
        (* reassign the union's slots: delta-B keeps its relative order
           and moves before delta-F, which keeps its relative order too *)
        let df = ref [] and db = ref [] and slots = ref [] in
        for i = ub downto lb do
          let w = g.back.(i) in
          if g.seen_b.(w) = ep then begin
            db := w :: !db;
            slots := i :: !slots
          end
          else if g.seen.(w) = ep then begin
            df := w :: !df;
            slots := i :: !slots
          end
        done;
        let rec place ws slots =
          match (ws, slots) with
          | [], rest -> rest
          | w :: ws', s :: ss' ->
            g.ord.(w) <- s;
            g.back.(s) <- w;
            place ws' ss'
          | _ :: _, [] -> assert false
        in
        let rest = place !db !slots in
        let rest = place !df rest in
        assert (rest = []);
        insert g u v;
        Ok ()
      end
    end

  let remove_edge g u v =
    check g u;
    check g v;
    if mem_edge g u v then begin
      g.out_.(u) <- List.filter (fun x -> x <> v) g.out_.(u);
      g.in_.(v) <- List.filter (fun x -> x <> u) g.in_.(v);
      Bytes.set g.mat ((u * g.nv) + v) '\000';
      g.ne <- g.ne - 1
    end

  let remove_vertex g i =
    check g i;
    g.ne <- g.ne - List.length g.out_.(i) - List.length g.in_.(i);
    List.iter
      (fun x ->
        Bytes.set g.mat ((i * g.nv) + x) '\000';
        g.in_.(x) <- List.filter (fun y -> y <> i) g.in_.(x))
      g.out_.(i);
    List.iter
      (fun x ->
        Bytes.set g.mat ((x * g.nv) + i) '\000';
        g.out_.(x) <- List.filter (fun y -> y <> i) g.out_.(x))
      g.in_.(i);
    g.out_.(i) <- [];
    g.in_.(i) <- []

  let to_digraph g =
    { n = g.nv; adj = Array.map Iset.of_list g.out_ }
end
