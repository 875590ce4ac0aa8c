(** CRC-32 (IEEE, polynomial 0xEDB88320), table-driven.

    Used by the object store's per-page leaf checksums, the checkpoint
    manifests, and the replication frame trailers.  Values fit in 32 bits
    and are returned as non-negative [int]s. *)

val of_string : ?crc:int -> string -> int
(** [of_string s] is the CRC-32 of [s]; [?crc] continues a running
    checksum (so [of_string ~crc:(of_string a) b = of_string (a ^ b)]). *)

val of_bytes : ?crc:int -> bytes -> int

val update : int -> bytes -> pos:int -> len:int -> int
(** Fold a byte range into a running checksum. *)

val update_le : int -> int -> bytes:int -> int
(** [update_le crc v ~bytes] folds the low [bytes] (at most 8) bytes of
    [v], little-endian, into a running checksum: the bytes a 32-bit
    ([~bytes:4]) or 64-bit ([~bytes:8], sign-extended as
    [Int64.of_int] stores it) field of [v] encodes to, without building
    them. *)
