(** Simulated time, counted in processor cycles of an 850 MHz BG/P core.

    All simulator timestamps are native ints (63-bit on 64-bit hosts, ample
    for multi-year simulated spans). Conversion helpers keep reporting in
    the units the paper uses (cycles, microseconds, seconds). *)

type t = int
(** A cycle count or timestamp. *)

val frequency_hz : float
(** Core clock: 850 MHz, as BG/P. *)

val of_us : float -> t
val of_seconds : float -> t

val to_ns : t -> float
val to_us : t -> float
val to_seconds : t -> float

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit. *)
