(** The one JSON module: a value type, its printer, a positioned parser
    and the member merge behind every machine-readable report
    ([ccopt analyze/trace/check --json], the Chrome trace export,
    [BENCH_sched.json] and [BENCH_check.json]). The repository carries
    no JSON dependency (DESIGN.md §7); this is the whole of it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Number of string
      (** A number kept as its literal text, so a field keeps the
          precision it was printed with and a re-printed member keeps
          its digits. The text is a JSON number literal that is not the
          [string_of_int] form of an [int] (those are [Int]); {!number}
          and {!fixed} build this canonical form. *)
  | String of string  (** raw bytes; {!escape} applies on printing *)
  | Array of t list
  | Object of (string * t) list  (** members in order *)

val number : string -> t
(** [number lit] is [Int i] when [lit] is the [string_of_int] text of
    [i], [Number lit] otherwise. [lit] is trusted to be a JSON number
    literal: a non-finite float's text ("nan", "inf") prints as is and
    fails {!parse}, which is how the report gates catch it. *)

val fixed : int -> float -> t
(** [fixed d x] is [number (Printf.sprintf "%.*f" d x)]. *)

val escape : string -> string
(** The body of a JSON string literal for [s], quotes not included:
    ['"'] and ['\\'] are backslash-escaped, newline and tab become
    [\n] and [\t], and every other control byte (below 0x20, and DEL)
    becomes [\u00XX]. Other bytes pass through unchanged. *)

val to_string : t -> string
(** The one layout, without a trailing newline. A container is written
    on one line ([{"a": 1, "b": [2, 3]}]) unless it holds, at any
    depth, an array with an array or object element; such a container
    is written one member per line, indented two spaces a level. *)

type error = { line : int; col : int; msg : string }
(** A parse failure at the 1-based [line] and byte column [col] of the
    offending byte, or just past the last byte when the input ends
    early. *)

val error_to_string : error -> string
(** ["line:col: msg"]. *)

val parse : string -> (t, error) result
(** RFC 8259 JSON text to a value; never raises. Rejects leading zeros,
    raw control bytes inside strings, unpaired [\u] surrogates,
    trailing text and nesting deeper than 512. Bytes from 0x80 up pass
    through strings unchecked, as {!escape} writes them. Integer
    literals are [Int] where {!number} would make them so; [\u]
    escapes decode to UTF-8. [parse (to_string v) = Ok v] for every
    [v] whose [Number]s are canonical. *)

val merge : existing:t -> t -> t
(** [merge ~existing fresh]: when both are objects, the members of
    [fresh] followed by the members of [existing] whose names [fresh]
    lacks, in their original order; otherwise [fresh]. Regenerating a
    committed report this way keeps the members other runs or tools
    put there. *)
