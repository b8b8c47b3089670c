(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum the
    snapshot format uses for per-section and whole-file integrity.
    Pure OCaml, table-driven (slicing-by-8 over native ints); composes
    incrementally like zlib's [crc32]: the empty-string CRC is [0l]
    and [update (update 0l a) b = of_string (a ^ b)]. *)

val update : int32 -> string -> pos:int -> len:int -> int32
(** Fold [len] bytes of [s] starting at [pos] into a running CRC.
    @raise Invalid_argument if the range is out of bounds. *)

val of_string : string -> int32
(** CRC of a whole string ([of_string "123456789" = 0xCBF43926l]). *)
