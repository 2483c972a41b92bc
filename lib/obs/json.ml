type t =
  | Null
  | Bool of bool
  | Int of int
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

let number lit =
  match int_of_string_opt lit with
  | Some i when string_of_int i = lit -> Int i
  | _ -> Number lit

let fixed d x = number (Printf.sprintf "%.*f" d x)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 || c = '\x7f' ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

(* ---------- printing ---------- *)

let rec breaks = function
  | Array l -> List.exists (function Array _ | Object _ -> true | _ -> false) l
  | Object m -> List.exists (fun (_, v) -> breaks v) m
  | _ -> false

let to_string v =
  let b = Buffer.create 1024 in
  let quoted s =
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  in
  let seq ind opening closing broken item items =
    let nl i =
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make i ' ')
    in
    Buffer.add_char b opening;
    if broken then nl (ind + 2);
    List.iteri
      (fun i x ->
        if i > 0 then
          if broken then (Buffer.add_char b ','; nl (ind + 2))
          else Buffer.add_string b ", ";
        item x)
      items;
    if broken then nl ind;
    Buffer.add_char b closing
  in
  let rec go ind = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Number s -> Buffer.add_string b s
    | String s -> quoted s
    | Array l as v -> seq ind '[' ']' (breaks v) (go (ind + 2)) l
    | Object m as v ->
      seq ind '{' '}' (breaks v)
        (fun (k, x) ->
          quoted k;
          Buffer.add_string b ": ";
          go (ind + 2) x)
        m
  in
  go 0 v;
  Buffer.contents b

(* ---------- parsing ---------- *)

type error = { line : int; col : int; msg : string }

let error_to_string e = Printf.sprintf "%d:%d: %s" e.line e.col e.msg

exception Fail of int * string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let at c = !pos < n && s.[!pos] = c in
  let digit () = !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' in
  let unexpected () =
    fail
      (if !pos >= n then "unexpected end of input"
       else Printf.sprintf "unexpected %C" s.[!pos])
  in
  let rec ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        ws ()
      | _ -> ()
  in
  let expect c = if at c then incr pos else unexpected () in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (pos := !pos + l; v)
    else unexpected ()
  in
  let number () =
    let start = !pos in
    let digits () =
      if not (digit ()) then unexpected ();
      while digit () do incr pos done
    in
    if at '-' then incr pos;
    if at '0' then begin
      incr pos;
      if digit () then fail "leading zero in a number"
    end
    else digits ();
    if at '.' then (incr pos; digits ());
    if at 'e' || at 'E' then begin
      incr pos;
      if at '+' || at '-' then incr pos;
      digits ()
    end;
    number (String.sub s start (!pos - start))
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match (if !pos < n then s.[!pos] else ' ') with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "expected four hex digits after \\u"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        let esc = !pos in
        incr pos;
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        (match c with
        | '"' | '\\' | '/' -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          let hi = hex4 () in
          let cp =
            if hi land 0xF800 <> 0xD800 then hi
            else if hi < 0xDC00 && at '\\' then begin
              incr pos;
              expect 'u';
              let lo = hex4 () in
              if lo land 0xFC00 <> 0xDC00 then
                raise (Fail (esc, "unpaired surrogate"));
              0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
            end
            else raise (Fail (esc, "unpaired surrogate"))
          in
          Buffer.add_utf_8_uchar b (Uchar.of_int cp)
        | _ -> raise (Fail (esc, Printf.sprintf "bad escape \\%C" c)));
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in a string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value depth =
    ws ();
    if !pos >= n then unexpected ();
    match s.[!pos] with
    | ('{' | '[') when depth >= max_depth -> fail "nesting too deep"
    | '{' ->
      incr pos;
      ws ();
      if at '}' then (incr pos; Object [])
      else members depth []
    | '[' ->
      incr pos;
      ws ();
      if at ']' then (incr pos; Array [])
      else elements depth []
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> unexpected ()
  and members depth acc =
    ws ();
    let k = string_lit () in
    ws ();
    expect ':';
    let acc = (k, value (depth + 1)) :: acc in
    ws ();
    if at ',' then (incr pos; members depth acc)
    else (expect '}'; Object (List.rev acc))
  and elements depth acc =
    let acc = value (depth + 1) :: acc in
    ws ();
    if at ',' then (incr pos; elements depth acc)
    else (expect ']'; Array (List.rev acc))
  in
  match
    let v = value 0 in
    ws ();
    if !pos < n then fail "trailing text after the value";
    v
  with
  | v -> Ok v
  | exception Fail (off, msg) ->
    let line = ref 1 and bol = ref 0 in
    for i = 0 to off - 1 do
      if s.[i] = '\n' then (incr line; bol := i + 1)
    done;
    Error { line = !line; col = off - !bol + 1; msg }

let merge ~existing fresh =
  match (existing, fresh) with
  | Object old, Object m ->
    Object (m @ List.filter (fun (k, _) -> not (List.mem_assoc k m)) old)
  | _ -> fresh
