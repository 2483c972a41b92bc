open Core

type severity = Error | Warning | Info

type witness =
  | Cycle of int list
  | Progress of int array * int array
  | History of Schedule.t
  | Locked_run of int array
  | Steps of Names.step_id list

type diagnostic = {
  rule : string;
  severity : severity;
  txs : int list;
  steps : Names.step_id list;
  witness : witness option;
  message : string;
}

type t = { target : string; diagnostics : diagnostic list }

let diagnostic ~rule ~severity ?(txs = []) ?(steps = []) ?witness message =
  { rule; severity; txs = List.sort_uniq compare txs; steps; witness; message }

let make ~target diagnostics = { target; diagnostics }

let count sev r =
  List.length (List.filter (fun d -> d.severity = sev) r.diagnostics)

let errors = count Error
let warnings = count Warning

let find rule r = List.find_opt (fun d -> d.rule = rule) r.diagnostics
let all rule r = List.filter (fun d -> d.rule = rule) r.diagnostics

(* ---------- text rendering ---------- *)

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_severity ppf s = Format.pp_print_string ppf (severity_string s)

let pp_tx ppf i = Format.fprintf ppf "T%d" (i + 1)

let pp_witness ppf = function
  | Cycle txs ->
    Format.fprintf ppf "cycle %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
         pp_tx)
      (txs @ [ List.hd txs ])
  | Progress (vec, prefix) ->
    Format.fprintf ppf "progress vector (%s) via prefix [%s]"
      (String.concat ","
         (List.map string_of_int (Array.to_list vec)))
      (String.concat "" (List.map string_of_int (Array.to_list prefix)))
  | History h -> Format.fprintf ppf "history %a" Schedule.pp h
  | Locked_run il ->
    Format.fprintf ppf "locked interleaving [%s]"
      (String.concat "" (List.map string_of_int (Array.to_list il)))
  | Steps ss ->
    Format.fprintf ppf "steps %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Names.pp_step)
      ss

let pp_diagnostic ppf d =
  Format.fprintf ppf "@[<v2>[%a] %s: %s" pp_severity d.severity d.rule
    d.message;
  if d.txs <> [] then
    Format.fprintf ppf "@,transactions: %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_tx)
      d.txs;
  if d.steps <> [] then
    Format.fprintf ppf "@,steps: %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Names.pp_step)
      d.steps;
  (match d.witness with
  | Some w -> Format.fprintf ppf "@,witness: %a" pp_witness w
  | None -> ());
  Format.fprintf ppf "@]"

let pp ppf r =
  Format.fprintf ppf "@[<v>analyze %s@,@," r.target;
  List.iter (fun d -> Format.fprintf ppf "%a@,@," pp_diagnostic d)
    r.diagnostics;
  Format.fprintf ppf "%d errors, %d warnings, %d infos@]" (errors r)
    (warnings r) (count Info r)

(* ---------- JSON rendering ---------- *)

let json_of_ints a = Obs.Json.Array (List.map (fun i -> Obs.Json.Int i) a)

let json_of_steps ss =
  Obs.Json.Array
    (List.map (fun s -> Obs.Json.String (Names.step_to_string s)) ss)

let json_of_witness w =
  let kind k members =
    Obs.Json.Object (("kind", Obs.Json.String k) :: members)
  in
  match w with
  | Cycle txs -> kind "cycle" [ ("transactions", json_of_ints txs) ]
  | Progress (vec, prefix) ->
    kind "progress"
      [
        ("vector", json_of_ints (Array.to_list vec));
        ("prefix", json_of_ints (Array.to_list prefix));
      ]
  | History h ->
    kind "history"
      [
        ( "interleaving",
          json_of_ints (Array.to_list (Schedule.to_interleaving h)) );
        ("steps", json_of_steps (Array.to_list h));
      ]
  | Locked_run il ->
    kind "locked-run" [ ("interleaving", json_of_ints (Array.to_list il)) ]
  | Steps ss -> kind "steps" [ ("steps", json_of_steps ss) ]

let json_of_diagnostic d =
  Obs.Json.Object
    ([
       ("rule", Obs.Json.String d.rule);
       ("severity", Obs.Json.String (severity_string d.severity));
       ("transactions", json_of_ints d.txs);
       ("steps", json_of_steps d.steps);
     ]
    @ (match d.witness with
      | Some w -> [ ("witness", json_of_witness w) ]
      | None -> [])
    @ [ ("message", Obs.Json.String d.message) ])

let schema_version = 1

let to_json r =
  Obs.Json.(
    Object
      [
        ("schema_version", Int schema_version);
        ("target", String r.target);
        ("diagnostics", Array (List.map json_of_diagnostic r.diagnostics));
        ( "summary",
          Object
            [
              ("errors", Int (errors r));
              ("warnings", Int (warnings r));
              ("infos", Int (count Info r));
              ("ok", Bool (errors r = 0));
            ] );
      ])
