open Core

let create ?sink ~syntax () =
  let slot_of_step, nvars = Sgt_core.var_slots syntax in
  let core =
    Sgt_core.create ?sink ~n:(Syntax.n_transactions syntax)
      ~conflicts:(Sgt_core.same_slot nvars)
      ()
  in
  Sgt_core.scheduler ~name:"SGT" core ~slot_of_step ~fmt:(Syntax.format syntax)
