(** The collector's metric tables, keyed by (subsystem, name, rank,
    core) without building a key: a lookup on an existing key allocates
    nothing, where a [Hashtbl] keyed by a record allocates the record
    and an option per call. Entries are numbered densely in insertion
    order and never removed, so an entry index stays valid until
    {!reset}. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> subsystem:string -> name:string -> rank:int -> core:int -> int
(** Entry index of the key, or -1. *)

val add : 'a t -> subsystem:string -> name:string -> rank:int -> core:int -> 'a -> int
(** Insert a key that is not present; returns its entry index. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val fold :
  (subsystem:string -> name:string -> rank:int -> core:int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over entries in insertion order. *)

val reset : 'a t -> unit
