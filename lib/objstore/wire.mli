(** Binary serialization for on-store records.

    Everything the object store persists (superblock, checkpoint records,
    object versions) goes through this little-endian, length-prefixed
    format, and recovery parses the exact bytes back off the simulated
    device — there is no in-memory shortcut on the recovery path. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer

val reset : writer -> unit
(** Empty the writer and keep its storage, so one writer can encode many
    records in turn. *)

val length : writer -> int
(** Bytes written since creation or the last {!reset}. *)

val u8 : writer -> int -> unit
val u32 : writer -> int -> unit
val u64 : writer -> int -> unit
val str : writer -> string -> unit
(** Length-prefixed. *)

val list : writer -> ('a -> unit) -> 'a list -> unit
(** Count-prefixed; the callback writes each element. *)

val set_u32 : writer -> at:int -> int -> unit
(** Overwrite the u32 already written at byte offset [at]: a count can be
    written before the items it counts and patched once they are known. *)

val contents : writer -> bytes
(** A fresh copy of the bytes written. *)

val to_string : writer -> string
(** The same bytes as {!contents}, as a string (one copy). *)

(** {1 Reading} *)

type reader

exception Corrupt of string

val reader : bytes -> reader
val ru8 : reader -> int
val ru32 : reader -> int
val ru64 : reader -> int
val rstr : reader -> string
val rlist : reader -> (reader -> 'a) -> 'a list
val remaining : reader -> int

val pos : reader -> int
(** Current byte offset, for error reporting. *)
