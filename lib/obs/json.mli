(** JSON text shared by every hand-emitted report. *)

val escape : string -> string
(** The body of a JSON string literal for [s], quotes not included:
    ['"'] and ['\\'] are backslash-escaped, newline and tab become
    [\n] and [\t], and every other control byte (below 0x20, and DEL)
    becomes [\u00XX]. Other bytes pass through unchanged. *)
