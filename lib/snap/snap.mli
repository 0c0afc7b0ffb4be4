(** Versioned, self-describing whole-machine snapshot format.

    A snapshot file is [magic | format version | CRC-32 of the body |
    body], where the body records the run identity (scenario id, knobs,
    seed), the event cursor (events fired, sim clock) and a list of
    named per-layer regions, each with its own codec version. Region
    payloads come from the per-layer [capture] functions threaded
    through the tree; this module owns only the container and the
    shared sparse-range codec.

    Decoding never raises: truncation, bit flips, bad magic and unknown
    versions all map to a typed {!decode_error}. *)

type region = { layer : string; layer_version : int; payload : bytes }

type file = {
  format_version : int;
  scenario : string;
  knobs : (string * string) list;
  seed : int64;
  events : int;  (** cursor: events fired when the capture was taken *)
  clock : int;   (** sim clock at the cursor *)
  regions : region list;
}

type decode_error =
  | Truncated
  | Bad_magic
  | Unsupported_version of int
  | Bad_crc of { expected : int32; got : int32 }
  | Bad_region of string

val decode_error_to_string : decode_error -> string

val format_version : int

val encode : file -> bytes
val decode : bytes -> (file, decode_error) result

val find_region : file -> string -> region option

type mismatch = { m_layer : string; m_offset : int }

val diff : file -> file -> mismatch option
(** First differing region between two snapshots (first differing byte
    offset within it), or [None] when every region matches. *)

val equal : file -> file -> bool

val write_path : path:string -> file -> unit
val read_path : string -> (file, decode_error) result

(** The dirty-page delta format shared with [Resilience.Ckpt]:
    [count:u64le], per range [addr:u64le][len:u64le], then the raw range
    data concatenated in order. Kept bit-for-bit with the pre-existing
    checkpoint wire format. *)
module Sparse : sig
  val encode_header : (int * int) list -> bytes
  (** Header bytes for [(addr, len)] ranges, without the data. *)

  val encode : ranges:(int * int) list -> read:(addr:int -> len:int -> bytes) -> bytes

  val decode_header : bytes -> ((int * int) list * int, decode_error) result
  (** Ranges plus the offset where their data starts. Data shorter than
      the declared ranges is [Error Truncated], never a raise. *)

  val decode : bytes -> ((int * bytes) list, decode_error) result
end
