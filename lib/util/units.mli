(** Size and time units.

    Virtual time throughout the repository is an [int] count of nanoseconds;
    sizes are [int] counts of bytes.  This module holds the conversion
    constants and human-readable formatters used by the CLI and the benchmark
    harness. *)

val kib : int
val mib : int
val gib : int

val pages_of_bytes : int -> int
(** Number of 4 KiB pages (the simulated machine's page size) covering
    [bytes], rounding up. *)

val ms : int
(** Nanoseconds in a millisecond. *)

val bytes_to_string : int -> string
(** "4 KiB", "1.5 MiB", "3 GiB", ... *)

val ns_to_string : int -> string
(** "1.7 µs", "4.0 ms", "1.2 s", ... chooses the natural unit. *)
