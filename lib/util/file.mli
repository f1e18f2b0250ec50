(** Atomic file output. *)

val write_atomic : string -> string -> unit
(** [write_atomic path text] replaces [path] with [text] whole: readers
    see the old file or the new one, never a partial write, and a failed
    write leaves no temp file behind.  Raises [Sys_error] when the
    directory is missing or unwritable. *)
