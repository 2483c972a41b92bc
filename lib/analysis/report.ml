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

let pp_severity ppf = function
  | Error -> Format.pp_print_string ppf "error"
  | Warning -> Format.pp_print_string ppf "warning"
  | Info -> Format.pp_print_string ppf "info"

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

(* A tiny JSON printer: the repo deliberately has no JSON dependency
   (DESIGN.md §7), and the schema is small enough to emit by hand. *)
type json =
  | J_bool of bool
  | J_int of int
  | J_str of string
  | J_list of json list
  | J_obj of (string * json) list

let rec emit b = function
  | J_bool v -> Buffer.add_string b (string_of_bool v)
  | J_int i -> Buffer.add_string b (string_of_int i)
  | J_str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Obs.Json.escape s);
    Buffer.add_char b '"'
  | J_list l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      l;
    Buffer.add_char b ']'
  | J_obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (J_str k);
        Buffer.add_char b ':';
        emit b v)
      fields;
    Buffer.add_char b '}'

let json_of_ints a = J_list (List.map (fun i -> J_int i) a)

let json_of_witness = function
  | Cycle txs ->
    J_obj [ ("kind", J_str "cycle"); ("transactions", json_of_ints txs) ]
  | Progress (vec, prefix) ->
    J_obj
      [
        ("kind", J_str "progress");
        ("vector", json_of_ints (Array.to_list vec));
        ("prefix", json_of_ints (Array.to_list prefix));
      ]
  | History h ->
    J_obj
      [
        ("kind", J_str "history");
        ( "interleaving",
          json_of_ints (Array.to_list (Schedule.to_interleaving h)) );
        ( "steps",
          J_list
            (List.map
               (fun s -> J_str (Names.step_to_string s))
               (Array.to_list h)) );
      ]
  | Locked_run il ->
    J_obj
      [
        ("kind", J_str "locked-run");
        ("interleaving", json_of_ints (Array.to_list il));
      ]
  | Steps ss ->
    J_obj
      [
        ("kind", J_str "steps");
        ("steps",
         J_list (List.map (fun s -> J_str (Names.step_to_string s)) ss));
      ]

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let json_of_diagnostic d =
  J_obj
    ([
       ("rule", J_str d.rule);
       ("severity", J_str (severity_string d.severity));
       ("transactions", json_of_ints d.txs);
       ( "steps",
         J_list
           (List.map (fun s -> J_str (Names.step_to_string s)) d.steps) );
     ]
    @ (match d.witness with
      | Some w -> [ ("witness", json_of_witness w) ]
      | None -> [])
    @ [ ("message", J_str d.message) ])

let schema_version = 1

let to_json r =
  let j =
    J_obj
      [
        ("schema_version", J_int schema_version);
        ("target", J_str r.target);
        ("diagnostics", J_list (List.map json_of_diagnostic r.diagnostics));
        ( "summary",
          J_obj
            [
              ("errors", J_int (errors r));
              ("warnings", J_int (warnings r));
              ("infos", J_int (count Info r));
              ("ok", J_bool (errors r = 0));
            ] );
      ]
  in
  let b = Buffer.create 512 in
  emit b j;
  Buffer.contents b
