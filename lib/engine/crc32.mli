(** CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320).

    The one checksum behind the reliable CIO frame ([Bg_cio.Frame]) and
    the snapshot container ([Bg_snap.Snap]). Works on native ints, so a
    checksum allocates nothing. *)

val compute : bytes -> pos:int -> len:int -> int
(** CRC-32 of [len] bytes of [b] starting at [pos], in [0, 2{^32}). *)
