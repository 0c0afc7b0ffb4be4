(** Deterministic priority queue of simulation events.

    Events are ordered by (timestamp, insertion sequence number): two events
    scheduled for the same cycle fire in insertion order. This total order
    is what makes the whole machine cycle-reproducible — the scheduler never
    consults anything outside the queue to break ties.

    The head is read in two steps, neither of which allocates:
    {[
      let time = Event_queue.next_time q in
      if time <> Event_queue.no_event then fire time (Event_queue.take q)
    ]} *)

type 'a t

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> 'a t

val no_event : Cycles.t
(** What {!next_time} returns when no live event is left ([max_int]). No
    event can be scheduled at this cycle. *)

val add : 'a t -> time:Cycles.t -> 'a -> handle
(** [add q ~time payload] schedules [payload] at [time].
    @raise Invalid_argument if [time] is {!no_event}. *)

val cancel : 'a t -> handle -> unit
(** [cancel q h] removes the event, if it has not already fired. Cancelling
    twice, or cancelling a fired event, is a no-op. *)

val next_time : 'a t -> Cycles.t
(** Timestamp of the earliest live event, or {!no_event} when there is
    none. Cancelled events met at the head are dropped on the way. *)

val take : 'a t -> 'a
(** Remove the earliest live event and return its payload; it fires at the
    time {!next_time} just returned.
    @raise Invalid_argument if no live event is left. *)

val is_empty : 'a t -> bool

val length : 'a t -> int
(** Number of live (non-cancelled) events. *)

val next_seq : 'a t -> int
(** Sequence number the next {!add} will receive. *)

val live : 'a t -> (Cycles.t * int) list
(** Sorted [(time, seq)] pairs of every live event — the queue's shape,
    without the (unserializable) payloads. Used by snapshot capture. *)
