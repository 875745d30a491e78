(** Run manifest: seed, caller-chosen parameters and toolchain versions, so
    every exported artifact says how to reproduce it. *)

type t = {
  seed : int option;
  params : (string * string) list;
  ocaml_version : string;
  os_type : string;
  word_size : int;
  argv : string list;
}

val make : ?seed:int -> ?params:(string * string) list -> unit -> t
(** Captures [Sys.ocaml_version], [Sys.os_type], [Sys.word_size] and
    [Sys.argv] at call time. *)

val json_escape : string -> string
(** JSON string-body escaping, shared by every JSON writer in the tree:
    quotes, backslashes, [\n]/[\t]/[\r] as short escapes and every other
    control byte as [\uXXXX]; the output is always a valid JSON string
    body. *)

val to_json : t -> string
(** The manifest as one JSON object (no trailing newline). *)

val pp : Format.formatter -> t -> unit
