(** Torus partition allocation — the service-node side of job launch.

    Blue Gene machines are space-shared: the control system carves the
    torus into electrically-isolated rectangular blocks and gives each job
    one. This allocator keeps a 3D occupancy map and places axis-aligned
    boxes first-fit in rank order; isolation means a partition's ranks
    never overlap another's (asserted by tests). *)

type allocation = {
  id : int;
  base : int * int * int;
  shape : int * int * int;
  ranks : int list;  (** torus ranks of the member nodes, ascending *)
}

type t

val create : dims:int * int * int -> t

val dims : t -> int * int * int

val allocate :
  ?base:int * int * int -> t -> shape:int * int * int -> (allocation, string) result
(** First-fit placement of an axis-aligned box ([shape] must fit within
    the machine dims; no wraparound). Fails when no box of that shape is
    free. With [?base] the box is placed exactly there (or the call
    fails) — the hook a torus-aware placer uses to pin a job onto the
    least-congested free region it scored. *)

val free_box : t -> base:int * int * int -> shape:int * int * int -> bool
(** Is the axis-aligned box at [base] entirely free (in bounds, no
    member occupied, down, or held as spare)? Raises [Invalid_argument]
    for an in-bounds base with a negative extent, unless an extent
    before it in z, y, x order is zero (an empty box). *)

val free_bases : t -> shape:int * int * int -> (int * int * int) list
(** Every base coordinate where [shape] could be allocated right now,
    in z-major (rank) order. Empty for impossible shapes. *)

val first_free_base : t -> shape:int * int * int -> (int * int * int) option
(** The head of {!free_bases}, found without building the list: the
    base {!allocate} picks when given no [?base]. *)

val ranks_of_box : t -> base:int * int * int -> shape:int * int * int -> int list
(** Member ranks of the box, ascending — for scoring a candidate
    placement before committing to it. Raises [Invalid_argument] when
    the box exceeds the machine or has a negative extent (as for
    {!free_box}). *)

val release : t -> int -> unit
(** Free an allocation by id; unknown ids raise [Invalid_argument]. *)

val free_nodes : t -> int
(** Nodes neither occupied nor marked down. *)

val allocated : t -> allocation list
val total_nodes : t -> int

val set_down : t -> rank:int -> bool -> unit
(** Mark a node dead (or revived). Down nodes are skipped by {!allocate};
    the RAS/recovery path flips this when a node death event arrives. *)

val is_down : t -> rank:int -> bool

val down_nodes : t -> int list
(** Ranks currently marked down, ascending. *)

val set_spare : t -> rank:int -> bool -> unit
(** Hold a free node in reserve: spares are skipped by {!allocate} (and
    excluded from {!free_nodes}) until {!substitute} activates them.
    Raises [Invalid_argument] when reserving an occupied or down rank. *)

val spare_ranks : t -> int list
(** Ranks currently held as spares, ascending. *)

val substitute : t -> dead:int -> int option
(** Spend one spare to cover a dead node: the lowest-ranked live spare
    re-enters the allocatable pool and is returned. [None] when the
    spare pool is exhausted — the machine shrinks instead. *)

val substitutions : t -> int
(** How many spares have been activated so far. *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state (occupancy, down set, live
    allocations) into [b], little-endian. *)
