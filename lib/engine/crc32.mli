(** CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320).

    The one checksum behind the reliable CIO frame ([Bg_cio.Frame]) and
    the snapshot container ([Bg_snap.Snap]). Works on native ints, eight
    bytes per step (slicing-by-8), so a checksum allocates nothing. *)

val compute : bytes -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes of [b] starting at [pos], in [0, 2{^32}).
    Raises [Invalid_argument] unless [0 <= pos], [0 <= len] and
    [pos + len <= Bytes.length b]. *)

val update : int -> bytes -> pos:int -> len:int -> int
(** [update crc b ~pos ~len] extends [crc], the CRC-32 of some prefix,
    by [len] bytes of [b] from [pos]: the CRC-32 of the prefix followed
    by those bytes. [compute b ~pos ~len = update 0 b ~pos ~len], and a
    message may be checksummed in pieces. Raises like {!compute}. *)
