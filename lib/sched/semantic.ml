open Core

let rec slot_of_op (op : Op.t) = function
  | [] -> -1
  | (o, s) :: rest -> if o = op then s else slot_of_op op rest

let create ?(sink = Obs.Sink.null) ~syntax () =
  (* One slot per (variable, op): per interned variable, its (op, slot)
     pairs. *)
  let var_of_step, nvars = Sgt_core.var_slots syntax in
  let ops_of_var = Array.make nvars [] in
  let keys = ref [] in
  let nslots = ref 0 in
  let slot_of_step =
    Array.mapi
      (fun i ->
        Array.mapi (fun j v ->
            let op = Syntax.kind syntax (Names.step i j) in
            let s = slot_of_op op ops_of_var.(v) in
            if s >= 0 then s
            else begin
              let s = !nslots in
              ops_of_var.(v) <- (op, s) :: ops_of_var.(v);
              keys := (v, op) :: !keys;
              incr nslots;
              s
            end))
      var_of_step
  in
  let keys = Array.of_list (List.rev !keys) in
  (* Per slot, the same-variable slots whose op does NOT commute with
     its own are the candidate edge sources. On a pure rw syntax every
     pair conflicts, and the relation is SGT's — pinned
     decision-for-decision against SGT in the tests. *)
  let same_var ~conflicting s =
    let v, op = keys.(s) in
    List.fold_left
      (fun acc (o, s') -> if Commute.conflicts o op = conflicting then s' :: acc else acc)
      [] ops_of_var.(v)
    |> Array.of_list
  in
  let core =
    Sgt_core.create ~sink ~n:(Syntax.n_transactions syntax)
      ~conflicts:(Array.init (Array.length keys) (same_var ~conflicting:true))
      ()
  in
  (* accesses of other transactions a grant did not serialize against —
     the coordination the commutativity table saved *)
  let on_commit =
    if not (Obs.Sink.on sink) then None
    else begin
      let commuting = Array.init (Array.length keys) (same_var ~conflicting:false) in
      Some
        (fun (id : Names.step_id) slot ->
          let tx = id.Names.tx in
          let skipped =
            Array.fold_left
              (fun acc c ->
                List.fold_left
                  (fun acc u -> if u <> tx then acc + 1 else acc)
                  acc (Sgt_core.accessors core c))
              0 commuting.(slot)
          in
          if skipped > 0 then
            Obs.Sink.record sink
              (Obs.Event.Commute_pass { tx; idx = id.Names.idx; skipped }))
    end
  in
  Sgt_core.scheduler ~name:"semantic" ?on_commit core ~slot_of_step
    ~fmt:(Syntax.format syntax)
