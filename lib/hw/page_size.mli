(** Hardware page sizes available to the BG/P TLB.

    CNK's static mapping tiles the address space with these sizes (paper
    §IV.C); the FWK baseline additionally uses 4 KiB demand-paged entries. *)

type t = P4k | P64k | P1m | P16m | P256m | P1g

val bytes : t -> int

val all_descending : t list
(** Largest first — the order the partitioning algorithm tries them. *)

val large_descending : t list
(** The sizes CNK's static mapper uses (1 GB down to 1 MB). *)

val aligned : t -> int -> bool
(** [aligned size addr]: is [addr] a multiple of the page size? *)

val align_up : t -> int -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
