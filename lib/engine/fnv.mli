(** FNV-1a 64-bit hashing.

    Used throughout the simulator wherever a deterministic digest of
    architectural state is needed (logic scans, waveforms, memory content
    digests). FNV-1a is chosen for its simplicity and full determinism
    across runs and platforms; cryptographic strength is not required. *)

type t = int64
(** A running 64-bit digest. *)

val empty : t
(** The FNV-1a offset basis. *)

val add_int64 : t -> int64 -> t
(** [add_int64 h x] folds the eight bytes of [x] (little-endian) into [h]. *)

val add_int : t -> int -> t
(** [add_int h x] folds a native int into [h]. *)

val add_string : t -> string -> t
(** [add_string h s] folds every byte of [s] into [h]. *)

val add_bytes : t -> bytes -> t
(** [add_bytes h b] folds every byte of [b] into [h]. *)

val to_hex : t -> string
(** Render as a 16-character lowercase hex string. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** An in-place running digest for hot paths: folding into it allocates
    nothing, where each [add_*] above returns a fresh boxed [t]. Every
    [Acc.add_*] folds exactly the bytes the matching [add_*] does. *)
module Acc : sig
  type t

  val create : unit -> t
  (** A digest at {!empty}. *)

  val get : t -> int64
  val set : t -> int64 -> unit
  val add_int : t -> int -> unit
  val add_int64 : t -> int64 -> unit
  val add_string : t -> string -> unit

  val to_int : t -> int
  (** [Int64.to_int (get a)], without boxing the int64. *)
end
