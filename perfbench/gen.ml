(* Workload generation. Everything an engine sees is drawn here from the
   seed; the engines receive only the resulting syntaxes and arrival
   streams. Each stream carries its own syntax (a fresh transaction
   system) and one uniformly random arrival interleaving of it. *)

open Core

type stream = {
  syntax : Syntax.t;
  fmt : int array;
  arrivals : int array;
  steps : int;  (** committed steps of one run: every transaction commits *)
}

type t = { name : string; streams : stream array }

let names = [ "hot"; "tenants"; "ledger" ]

(* 16 x 8 over 8 untyped variables, 80% of steps on v0: the committed
   [hot] cell of the scheduler bench. *)
let hot st = Sim.Workload.hotspot st ~n:16 ~m:8 ~n_vars:8 ~theta:0.8

(* 4096 untyped variables split into 4 tenant key ranges by the sharded
   engine's own hash, so a tenant is exactly a shard at K = 4. *)
let tenant_pools () =
  let pools = Array.make 4 [] in
  for i = 4095 downto 0 do
    let v = Printf.sprintf "v%d" i in
    let s = Sched.Partition.shard_of_var ~shards:4 v in
    pools.(s) <- v :: pools.(s)
  done;
  Array.map Array.of_list pools

(* 256 x 4; a transaction stays in one tenant, except that with
   probability 0.05 one of its steps lands in another tenant. *)
let tenants pools st =
  let pick pool = pool.(Random.State.int st (Array.length pool)) in
  Syntax.make
    (Array.init 256 (fun _ ->
         let home = Random.State.int st 4 in
         let cross = Random.State.float st 1.0 < 0.05 in
         let at = Random.State.int st 4 in
         let away = (home + 1 + Random.State.int st 3) mod 4 in
         Array.init 4 (fun j ->
             pick pools.(if cross && j = at then away else home))))

(* 32 x 6 over 64 typed accounts, 20% of accesses on a0. Reads (50%)
   sit beside commuting bumps (Incr/Decr, 30%) and non-commuting
   read-modify-writes (Update, 20%). *)
let ledger st =
  let account () =
    if Random.State.float st 1.0 < 0.2 then "a0"
    else Printf.sprintf "a%d" (1 + Random.State.int st 63)
  in
  let op () =
    let r = Random.State.float st 1.0 in
    if r < 0.5 then Op.Read
    else if r < 0.8 then if Random.State.bool st then Op.Incr else Op.Decr
    else Op.Update
  in
  Syntax.make_typed
    (Array.init 32 (fun _ ->
         Array.init 6 (fun _ ->
             let o = op () in
             (o, account ()))))

(* Streams per workload: enough that the cost of a workload varies by a
   few percent at most from seed to seed. *)
let stream_count = function "hot" -> 256 | "tenants" -> 16 | _ -> 96

let generate name ~seed =
  let syntax_of =
    match name with
    | "hot" -> hot
    | "tenants" -> tenants (tenant_pools ())
    | "ledger" -> ledger
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  let st = Random.State.make [| seed; Hashtbl.hash name |] in
  let stream () =
    let syntax = syntax_of st in
    let fmt = Syntax.format syntax in
    let arrivals = Combin.Interleave.random st fmt in
    { syntax; fmt; arrivals; steps = Syntax.n_steps syntax }
  in
  { name; streams = Array.init (stream_count name) (fun _ -> stream ()) }

let same_inputs a b =
  Array.length a.streams = Array.length b.streams
  && Array.for_all2
       (fun x y -> Syntax.equal x.syntax y.syntax && x.arrivals = y.arrivals)
       a.streams b.streams

let total_steps w = Array.fold_left (fun acc s -> acc + s.steps) 0 w.streams

let total_txns w =
  Array.fold_left (fun acc s -> acc + Array.length s.fmt) 0 w.streams
