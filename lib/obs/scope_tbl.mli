(** An open-addressed table from a [(rank, core)] scope to a value.

    The key is the pair itself, compared exactly. Scopes are numbered
    0, 1, 2, ... in the order they are added, and a value is read and
    written through that number, so neither a lookup nor an update of a
    known scope allocates. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> rank:int -> core:int -> int
(** The scope's number, or [-1] if it was never added. *)

val add : 'a t -> rank:int -> core:int -> 'a -> unit
(** Add a scope that {!find} does not know, numbered [length t]. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val fold : (rank:int -> core:int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over every scope, in the order they were added. *)

val reset : 'a t -> unit
(** Forget every scope. *)
