(* The one JSON module (Obs.Json): the parser answers every input with a
   value or a positioned error, printing round-trips, and every
   deterministic emitter still produces the values the hand-written
   emitters it replaced produced (test/json_pins.expected, generated by
   those emitters), while the timing-valued bench reports keep their
   member paths, value kinds and number precision. *)

open Util

(* ---------- parser robustness ---------- *)

(* [Ok _], or an [Error] positioned inside the input (at most one past
   its last byte) — never an exception. *)
let positioned s =
  match Obs.Json.parse s with
  | Ok _ -> true
  | Error { Obs.Json.line; col; _ } ->
    let lines = Array.of_list (String.split_on_char '\n' s) in
    line >= 1
    && line <= Array.length lines
    && col >= 1
    && col <= String.length lines.(line - 1) + 1
  | exception _ -> false

(* RFC 8259 forbids leading zeros and raw control bytes in strings; the
   scanner the parser replaced accepted both. *)
let test_rejects_invalid () =
  List.iter
    (fun (text, line, col, msg) ->
      check_true
        (Printf.sprintf "%S rejected at %d:%d: %s" text line col msg)
        (Obs.Json.parse text = Error { Obs.Json.line; col; msg }))
    [
      ("007", 1, 2, "leading zero in a number");
      ("-012", 1, 3, "leading zero in a number");
      ("{\"a\": \"x\ny\"}", 1, 9, "raw control character in a string");
      ("\"\t\"", 1, 2, "raw control character in a string");
      ("[1, 2,]", 1, 7, "unexpected ']'");
      ("{\"a\":}", 1, 6, "unexpected '}'");
      ("{\"a\": [1,\n 2", 2, 3, "unexpected end of input");
      ("{} {}", 1, 4, "trailing text after the value");
      ("", 1, 1, "unexpected end of input");
      ("\"\\ud800x\"", 1, 2, "unpaired surrogate");
      ("\"\\q\"", 1, 2, "bad escape \\'q'");
      ("1.", 1, 3, "unexpected end of input");
      ("True", 1, 1, "unexpected 'T'");
      ("\"abc", 1, 5, "unterminated string");
    ];
  List.iter
    (fun (text, v) ->
      check_true (text ^ " parses") (Obs.Json.parse text = Ok v))
    Obs.Json.
      [
        ("0", Int 0);
        ("-0", Number "-0");
        ("-1.50e+3", Number "-1.50e+3");
        ("123456789012345678901234", Number "123456789012345678901234");
        ("\"\\u00e9\\ud83d\\ude00\\/\"", String "\xc3\xa9\xf0\x9f\x98\x80/");
        (" [ ] ", Array []);
        ( "{\"k\": null, \"k\": true}",
          Object [ ("k", Null); ("k", Bool true) ] );
      ]

(* JSON-ish bytes reach deeper into the grammar than uniform ones. *)
let jsonish_gen =
  QCheck.Gen.(
    let alphabet = "{}[]\",:-+.0123eE9tfnul\\ \nau" in
    string_size ~gen:(oneofl (List.of_seq (String.to_seq alphabet))) (0 -- 48))

let prop_random_bytes =
  QCheck.Test.make ~name:"parse: random bytes" ~count:2000
    QCheck.(string_gen_of_size Gen.(0 -- 64) Gen.char)
    positioned

let prop_jsonish =
  QCheck.Test.make ~name:"parse: random JSON-ish text" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") jsonish_gen)
    positioned

(* Deep nesting is refused with a position, not a stack overflow. *)
let test_deep_nesting () =
  let deep = 100_000 in
  List.iter
    (fun (name, s) ->
      check_true name (positioned s);
      check_true (name ^ " refused") (Result.is_error (Obs.Json.parse s)))
    [
      ("100k-deep [", String.make deep '[');
      ("100k-deep [] pairs", String.make deep '[' ^ String.make deep ']');
      ( "100k-deep objects",
        String.concat "" (List.init deep (fun _ -> "{\"a\":")) );
    ];
  let shallow = String.make 500 '[' ^ String.make 500 ']' in
  check_true "500-deep accepted" (Result.is_ok (Obs.Json.parse shallow))

(* ---------- printer / parser round trip ---------- *)

let value_gen =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (0 -- 6) in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) int;
        map2 Obs.Json.fixed (0 -- 6) (float_range (-1e6) 1e6);
        map Obs.Json.number
          (oneofl [ "-0"; "1e5"; "2.5E-3"; "-0.0"; "98765432109876543210" ]);
        map (fun s -> Obs.Json.String s) bytes;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then scalar
         else
           frequency
             [
               (1, scalar);
               ( 2,
                 map
                   (fun l -> Obs.Json.Array l)
                   (list_size (0 -- 4) (self (n / 3))) );
               ( 2,
                 map
                   (fun l -> Obs.Json.Object l)
                   (list_size (0 -- 4) (pair bytes (self (n / 3)))) );
             ])

let prop_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = Ok v" ~count:1000
    (QCheck.make ~print:Obs.Json.to_string value_gen)
    json_round_trips

(* ---------- value pins of the emitters ---------- *)

let analyze_cases =
  [
    ("xy,yx", Some "0101", None, None);
    ("xy,yx", None, Some "2pl", None);
    ("xy,yx", None, None, Some "sgt");
    ("xy,yx", Some "0101", Some "2pl", None);
    ("xx,x", Some "010", None, None);
    ("xy,yz", None, Some "preclaim", None);
  ]

let analyze_case (syn, sched, policy, certify) =
  let opt flag = function None -> "" | Some v -> " --" ^ flag ^ " " ^ v in
  ( "analyze " ^ syn ^ opt "schedule" sched ^ opt "policy" policy
    ^ opt "certify" certify,
    Analysis.Report.to_json
      (Analysis.Analyze.run
         (Analysis.Analyze.request
            ?schedule:(Option.map Analysis.Analyze.parse_interleaving sched)
            ?policy ?certify ~k:2
            (Analysis.Analyze.parse_syntax syn))) )

(* (label, seed, capacity): the trace summary of each, and the Chrome
   export of every scheduler for all but the second *)
let trace_cases =
  [
    ("xyz,zx,yz", 7, Sim.Trace_run.default_capacity, true);
    ("xy,yx", 42, Sim.Trace_run.default_capacity, false);
    ("xxy,yx,xyy", 42, 4, true);
  ]

let trace_case (label, seed, capacity, chrome) =
  let sp =
    {
      Sim.Trace_run.label;
      syntax = Analysis.Analyze.parse_syntax label;
      seed;
      capacity;
      samples = 50;
      only = [];
    }
  in
  let runs = Sim.Trace_run.execute sp in
  let tag = Printf.sprintf "%s seed=%d capacity=%d" label seed capacity in
  ("trace-summary " ^ tag, Sim.Trace_run.json_summary sp runs)
  :: (if chrome then
        List.map
          (fun r ->
            ( "chrome " ^ tag ^ " " ^ r.Sim.Trace_run.slug,
              r.Sim.Trace_run.chrome ))
          runs
      else [])

(* every event constructor, out of timestamp order, with a name that
   needs escaping *)
let chrome_fixture =
  let open Obs.Event in
  [
    (0., Submitted { tx = 0; idx = 0 });
    (0.5, Submitted { tx = 1; idx = 0 });
    (1.5, Delayed { tx = 1; idx = 0 });
    (1.25, Granted { tx = 0; idx = 0 });
    (2., Executed { tx = 0; idx = 0 });
    (2., Edge_added { src = 0; dst = 1 });
    (2.5, Cycle_refused { tx = 1; idx = 0 });
    (3., Commute_pass { tx = 0; idx = 1; skipped = 2 });
    (3.125, Lock_acquired { tx = 0; lock = "x" });
    (3.25, Lock_released { tx = 0; lock = "x\"q\\\t\n" });
    (4., Wound { victim = 1 });
    (4., Aborted { tx = 1; reason = Deadlock });
    (4.5, Restarted { tx = 1 });
    (5., Ts_refused { tx = 1; idx = 0 });
    (5., Aborted { tx = 1; reason = Scheduler_abort });
    (6., Shard_routed { tx = 2; idx = 0; shard = 3 });
    (6.5, Snapshot_taken { tx = 2; ts = 4 });
    (7., Version_read { tx = 2; var = "y"; value = -3 });
    (7.5, Version_installed { tx = 2; var = "y"; value = 9 });
    (8., Ww_refused { tx = 2; var = "y" });
    (8.5, Pivot_refused { tx = 2; cyclic = false });
    (8.75, Pivot_refused { tx = 1; cyclic = true });
    (9., Twopc_sent { tx = 2; src = 4; dst = 0; msg = Prepare });
    (9.5, Twopc_delivered { tx = 2; src = 4; dst = 0; msg = Vote true });
    (10., Twopc_timeout { tx = 2; node = 4; timer = "vote" });
    (10.5, Twopc_sent { tx = 2; src = 4; dst = 0; msg = Decision false });
    (11., Twopc_decided { tx = 2; node = 4; commit = false });
    (11.5, Node_crashed { tx = 2; node = 0 });
    (12., Node_recovered { tx = 2; node = 0 });
    (12.5, Twopc_sent { tx = 2; src = 0; dst = 4; msg = Decision_req });
    (13., Twopc_delivered { tx = 2; src = 0; dst = 4; msg = Ack });
    (13.5, Twopc_decided { tx = 2; node = 0; commit = true });
    (14., Committed { tx = 0 });
  ]

let sched_bench_smoke () =
  let spec = Sim.Sched_bench.smoke in
  Sim.Sched_bench.to_json spec (Sim.Sched_bench.sections spec)

let value_cases () =
  List.map analyze_case analyze_cases
  @ List.concat_map trace_case trace_cases
  @ [
      ("chrome fixture", Obs.Trace_export.chrome chrome_fixture);
      ("sched-bench smoke", sched_bench_smoke ());
    ]

(* The check bench report carries timings: its pin is the member paths,
   kinds and decimal digits, plus the members that do not depend on the
   clock compared by value. *)
let check_bench_smoke () =
  let spec = Sim.Check_bench.smoke in
  Sim.Check_bench.to_json spec (Sim.Check_bench.run spec)

let member k = function
  | Obs.Json.Object m ->
    Option.value ~default:Obs.Json.Null (List.assoc_opt k m)
  | _ -> Obs.Json.Null

let keep keys = function
  | Obs.Json.Object m ->
    Obs.Json.Object (List.filter (fun (k, _) -> List.mem k keys) m)
  | v -> v

let rows f = function
  | Obs.Json.Array l -> Obs.Json.Array (List.map f l)
  | v -> v

let untimed_check v =
  Obs.Json.Object
    [
      ("config", member "config" v);
      ("results", rows (keep [ "level"; "events" ]) (member "results" v));
    ]

(* Member paths (array positions as []), kinds and decimal digits, each
   once, in first-seen order. *)
let shape v =
  let seen = Hashtbl.create 64 and acc = ref [] in
  let add x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      acc := x :: !acc
    end
  in
  let digits s =
    match String.index_opt s '.' with
    | None -> 0
    | Some i ->
      let j = ref (i + 1) in
      while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
        incr j
      done;
      !j - i - 1
  in
  let rec go path = function
    | Obs.Json.Null -> add (path, "null", 0)
    | Obs.Json.Bool _ -> add (path, "bool", 0)
    | Obs.Json.Int _ -> add (path, "int", 0)
    | Obs.Json.Number s -> add (path, "number", digits s)
    | Obs.Json.String _ -> add (path, "string", 0)
    | Obs.Json.Array l ->
      add (path, "array", 0);
      List.iter (go (path ^ "[]")) l
    | Obs.Json.Object m ->
      add (path, "object", 0);
      List.iter (fun (k, v) -> go (path ^ "." ^ k) v) m
  in
  go "$" v;
  List.rev !acc

let shape_cases () =
  [
    ("check-bench smoke", check_bench_smoke (), untimed_check);
  ]

(* The golden file: "== <case>" lines, each followed by the case's text
   as the replaced emitters printed it. *)
let golden () =
  let flush cur acc =
    match cur with
    | None -> acc
    | Some (h, ls) -> (h, String.concat "\n" (List.rev ls)) :: acc
  in
  let rec go acc cur = function
    | [] -> List.rev (flush cur acc)
    | l :: rest when String.starts_with ~prefix:"== " l ->
      go (flush cur acc) (Some (String.sub l 3 (String.length l - 3), [])) rest
    | l :: rest -> go acc (Option.map (fun (h, ls) -> (h, l :: ls)) cur) rest
  in
  go [] None (String.split_on_char '\n' (read_test_file "json_pins.expected"))

(* The first path at which two values differ. *)
let rec first_diff path a b =
  let rec first = function
    | [] -> None
    | (p, x, y) :: rest -> (
      match first_diff p x y with None -> first rest | d -> d)
  in
  match (a, b) with
  | _ when a = b -> None
  | Obs.Json.Array x, Obs.Json.Array y when List.compare_lengths x y = 0 ->
    first (List.mapi (fun i (x, y) -> (Printf.sprintf "%s[%d]" path i, x, y))
             (List.combine x y))
  | Obs.Json.Object x, Obs.Json.Object y when List.map fst x = List.map fst y ->
    first (List.map2 (fun (k, x) (_, y) -> (path ^ "." ^ k, x, y)) x y)
  | _ -> Some (path, a, b)

let check_same name want got =
  match first_diff "$" want got with
  | None -> ()
  | Some (path, w, g) ->
    Alcotest.failf "%s: %s differs:\n  want %s\n  got  %s" name path
      (Obs.Json.to_string w) (Obs.Json.to_string g)

let parsed name text =
  match Obs.Json.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" name (Obs.Json.error_to_string e)

let test_pins () =
  let golden = golden () in
  let want name =
    match List.assoc_opt name golden with
    | Some text -> parsed (name ^ " (golden)") text
    | None -> Alcotest.failf "no golden output for %s" name
  in
  let values = value_cases () and shapes = shape_cases () in
  check_true "every golden case is pinned"
    (List.map fst golden
    = List.map fst values @ List.map (fun (h, _, _) -> h) shapes);
  List.iter
    (fun (name, v) ->
      check_same name (want name) (parsed name (Obs.Json.to_string v)))
    values;
  List.iter
    (fun (name, v, untimed) ->
      let w = want name and g = parsed name (Obs.Json.to_string v) in
      let sw = shape w and sg = shape g in
      List.iteri
        (fun i ((p, k, d) as x) ->
          if List.nth_opt sg i <> Some x then
            Alcotest.failf "%s: shape #%d: want %s %s %d, got %s" name i p k d
              (match List.nth_opt sg i with
              | Some (p, k, d) -> Printf.sprintf "%s %s %d" p k d
              | None -> "<missing>"))
        sw;
      check_int (name ^ " shape length") (List.length sw) (List.length sg);
      check_same (name ^ " (untimed members)") (untimed w) (untimed g))
    shapes

(* The parser's real inputs: every pinned emitter's output, and every
   byte alone and all together in a string and a key (the escaper's
   whole domain). Each prints as JSON with no raw control byte but
   layout newlines, parses back to itself, and its truncations and
   one-byte mutations still get an answer with a position. *)
let test_parser_inputs () =
  Alcotest.(check string) "tab escape" "a\\tb" (Obs.Json.escape "a\tb");
  let all = String.init 256 Char.chr in
  let bytes =
    List.init 256 (fun c ->
        ( Printf.sprintf "byte %d" c,
          Obs.Json.String (String.make 1 (Char.chr c)) ))
    @ [
        ( "every byte",
          Obs.Json.(Object [ (all, String all); ("", Array [ String all ]) ]) );
      ]
  in
  let st = Random.State.make [| 0x15 |] in
  List.iter
    (fun (name, v) ->
      let s = Obs.Json.to_string v in
      check_true (name ^ " round-trips") (json_round_trips v);
      check_false (name ^ ": no raw control byte")
        (String.exists
           (fun c -> c <> '\n' && (Char.code c < 0x20 || c = '\x7f'))
           s);
      let n = String.length s in
      let cuts =
        List.init (min n 200) Fun.id
        @ List.init 100 (fun _ -> Random.State.int st (n + 1))
      in
      List.iter
        (fun k ->
          if not (positioned (String.sub s 0 k)) then
            Alcotest.failf "%s truncated at %d: no positioned answer" name k)
        cuts;
      for _ = 1 to 300 do
        let b = Bytes.of_string s in
        let i = Random.State.int st n in
        Bytes.set b i (Char.chr (Random.State.int st 256));
        if not (positioned (Bytes.to_string b)) then
          Alcotest.failf "%s mutated at %d: no positioned answer" name i
      done)
    (value_cases ()
    @ List.map (fun (h, v, _) -> (h, v)) (shape_cases ())
    @ bytes)

let suite =
  [
    Alcotest.test_case "JSON rejects invalid text with a position" `Quick
      test_rejects_invalid;
    Alcotest.test_case "JSON deep nesting" `Quick test_deep_nesting;
    Alcotest.test_case "JSON parser inputs" `Quick test_parser_inputs;
    Alcotest.test_case "JSON emitter pins" `Quick test_pins;
  ]
  @ qsuite [ prop_random_bytes; prop_jsonish; prop_round_trip ]
