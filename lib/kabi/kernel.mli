(** What the two compute-node kernels share.

    CNK ([Cnk]) and the Linux-like FWK ([Bg_fwk]) differ in scheduling,
    memory and I/O, but not in how a harness drives them nor in how they
    report to the observability layers. This module holds both: the
    {!CLUSTER} interface each kernel's multi-node harness implements, so
    a tool can run one program image on either kernel through one
    function, and the per-rank bookkeeping whose bodies were identical in
    both kernels. *)

(** A whole machine of one kernel, ready to run jobs: one node per torus
    rank, all on one simulation. [Cnk.Cluster] and [Bg_fwk.Cluster]
    implement it; each adds its own [create]. *)
module type CLUSTER = sig
  type t
  type node

  val machine : t -> Machine.t
  val sim : t -> Bg_engine.Sim.t
  val nodes : t -> node array
  val node : t -> int -> node

  val boot_all : t -> unit
  (** Run the simulation until every node reports booted. Raises
      [Failure] if the simulation drains first. *)

  val launch_all : t -> ?ranks:int list -> Job.t -> unit
  (** Launch on the given ranks (default: all), in list order, without
      running the simulation. Raises [Failure] on a launch error. *)

  val run_job : t -> ?ranks:int list -> Job.t -> unit
  (** {!launch_all}, then run the simulation until every launched node's
      job completes. Raises [Failure] if it drains with ranks unfinished. *)

  val run_until_quiet : t -> unit
  (** Drain the event queue. *)
end

(** The per-node calls a cluster harness needs; both kernels' [Node]
    modules provide them. *)
module type NODE = sig
  type t

  val boot : t -> on_ready:(unit -> unit) -> unit
  val launch : t -> Job.t -> (unit, string) result
  val on_job_complete : t -> (unit -> unit) -> unit
end

(** The shared bodies of {!CLUSTER}'s [boot_all], [launch_all] and
    [run_job], over a simulation and its node array. *)
module Drive (N : NODE) : sig
  val boot_all : Bg_engine.Sim.t -> N.t array -> unit
  val launch_all : N.t array -> ?ranks:int list -> Job.t -> unit
  val run_job : Bg_engine.Sim.t -> N.t array -> ?ranks:int list -> Job.t -> unit
end

(** {1 Per-rank bookkeeping}

    Each call names the machine, the reporting rank and, where it
    matters, the core. *)

val emit : Machine.t -> rank:int -> string -> int -> unit
(** Architectural trace event [label] with value [rank * 1_000_000 + v]. *)

val ras : Machine.t -> rank:int -> Machine.ras_severity -> string -> unit
(** RAS message from the kernel, counted in [kernel/ras_emitted]. *)

val causal_mint :
  ?chain:bool ->
  Machine.t ->
  rank:int ->
  cat:string ->
  name:string ->
  core:int ->
  Bg_obs.Causal.ctx
(** Causal node on this rank, program-order chained unless said
    otherwise; [Causal.none] (and nothing recorded) while causal
    collection is off, so carriers then ship context 0. *)

val acct_switch : Machine.t -> rank:int -> core:int -> Bg_obs.Accounting.state -> unit
(** Switch the core's cycle-ledger state at the current cycle. *)

val enter_syscall :
  Machine.t -> rank:int -> core:int -> Sysreq.request -> Coro.services ->
  (Sysreq.reply, Coro.step) Effect.Deep.continuation -> Sysreq.reply -> Coro.step
(** Book a thread's trap into the kernel and return its reply path, which
    resumes the thread with [services]. Trap-to-reply is charged to
    [Syscall] in the cycle ledger. While obs or causal collection is on,
    the interval also lands in a "syscall" span, a per-kind latency timer
    and count, and causal entry/exit nodes; this is purely passive (no
    events, no RNG), so the trace digest is the same with collection on
    or off. Exit syscalls never reply and are not booked. *)

exception Fault of string
(** A translation fault, raised by a kernel's memory primitives. *)

val ops :
  clock:('n -> 'th -> Bg_engine.Cycles.t) -> load:('n -> 'th -> int -> int -> bytes) ->
  store:('n -> 'th -> int -> bytes -> unit) -> read_word:('n -> 'th -> int -> int) ->
  write_word:('n -> 'th -> int -> int -> unit) -> ('n * 'th) Coro.ops
(** A kernel's in-place operations on a (node, thread) pair, over its
    primitives: [cas] and [fetch_add] are one read-modify-write each. A
    {!Fault} becomes a {!Coro.Fault} trap, with zero bytes, [()], [false]
    or [0] as what the access returns if the kernel lets the thread on. *)

val refresh_stretch : Bg_hw.Chip.t -> Bg_engine.Cycles.t -> int -> int
(** [n] cycles of work starting at cycle [start], plus one DRAM refresh
    stall per refresh window the block crosses. *)

val query_perf : Bg_hw.Chip.t -> Sysreq.perf_op -> Sysreq.reply
(** Serve [Query_perf] from the chip's UPC unit: start, stop, freeze, or
    read (the frozen snapshot when frozen, live counts otherwise). *)
