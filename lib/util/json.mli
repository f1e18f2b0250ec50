(** Deterministic JSON emitter.

    Object fields come out in the order given and nothing in the output
    depends on hashing or machine state, so two runs that build the same
    value produce byte-identical text — the property the fuzzer's
    [--jobs N] = [--jobs 1] report check relies on. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN and infinities render as [null]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape_string : string -> string
(** RFC 8259 string-body escaping (no surrounding quotes). *)

val to_string : ?indent:int -> t -> string
(** Pretty-printed with a trailing newline; [indent] defaults to 2. *)
