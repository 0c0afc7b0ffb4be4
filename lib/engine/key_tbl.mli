(** Hash table keyed by up to three ints, for hot paths.

    A [(int * int, _) Hashtbl.t] allocates its key tuple on every lookup
    and an option on every [find_opt]; this table allocates nothing once
    it has grown to its working size. Keys are passed unboxed (callers
    with fewer than three pad with 0). Entries live densely at indices
    [0 .. length-1]: {!find} returns an entry's index, valid until the
    next {!remove}, which moves the last entry into the hole. Linear
    probing in a table never more than half full. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val find : 'a t -> int -> int -> int -> int
(** Entry index of the key, or -1. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val add : 'a t -> int -> int -> int -> 'a -> int
(** Insert a key that is not present; returns its entry index. *)

val replace : 'a t -> int -> int -> int -> 'a -> unit
val remove : 'a t -> int -> int -> int -> unit

val fold : (int -> int -> int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over entries in index order — insertion order until a {!remove}. *)

val reset : 'a t -> unit
