(* Minimal deterministic JSON emitter: object fields are emitted in the
   order given, finite floats through %.17g (shortest round-trip not
   needed — reports compare textually), strings escaped per RFC 8259.
   No parser: the repo only ever writes JSON. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape_string s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* JSON has no NaN or infinity: render them as null. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec emit b ~indent ~level t =
  let pad n = Buffer.add_string b (String.make (n * indent) ' ') in
  match t with
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v -> Buffer.add_string b (float_repr v)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape_string s);
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List items ->
    Buffer.add_string b "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string b ",\n";
        pad (level + 1);
        emit b ~indent ~level:(level + 1) item)
      items;
    Buffer.add_char b '\n';
    pad level;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj fields ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",\n";
        pad (level + 1);
        Buffer.add_char b '"';
        Buffer.add_string b (escape_string k);
        Buffer.add_string b "\": ";
        emit b ~indent ~level:(level + 1) v)
      fields;
    Buffer.add_char b '\n';
    pad level;
    Buffer.add_char b '}'

let to_string ?(indent = 2) t =
  let b = Buffer.create 1024 in
  emit b ~indent ~level:0 t;
  Buffer.add_char b '\n';
  Buffer.contents b
