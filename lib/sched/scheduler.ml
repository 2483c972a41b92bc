open Core

type response = Grant | Delay | Abort

type t = {
  name : string;
  attempt : Names.step_id -> response;
  commit : Names.step_id -> unit;
  on_abort : int -> unit;
  victim : int list -> int option;
  detect : (int * Names.step_id) list -> int option;
  epoch : (unit -> int) option;
}

let default_victim = function [] -> None | tx :: _ -> Some tx

let make ~name ~attempt ~commit ?(on_abort = fun _ -> ())
    ?(victim = default_victim) ?(detect = fun _ -> None) ?epoch () =
  { name; attempt; commit; on_abort; victim; detect; epoch }

let wake_epoch t ~changes = match t.epoch with Some f -> f () | None -> changes
