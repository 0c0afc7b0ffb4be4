(** Effect-handler coroutines: the "machine code" of simulated threads.

    User programs are plain OCaml closures that interact with the machine
    only through the operations below. Only the suspension points
    {!consume}, {!syscall} and {!yield} perform an OCaml 5 effect; {!start}
    and {!resume} reify the computation into a {!step} value the kernel
    schedules (trap in, decide, resume). Simulated time advances only
    there, so only there does the simulator interleave threads.

    {!rdtsc}, {!load}, {!store}, {!cas} and {!fetch_add} are answered in
    place, inside the running fiber, by the {!services} the kernel
    publishes in a per-domain slot for exactly as long as the fiber runs.
    Their slow paths, a translation fault or a store into a DAC guard,
    suspend through one {!trap} that the kernel handles outside the fiber.

    [consume] is time: a block of straight-line computation costing [n]
    cycles. Kernels decide how much wall-clock those cycles take (CNK:
    exactly [n] plus DRAM refresh; the FWK: [n] plus ticks, daemons and
    TLB misses — the paper's noise story).

    Outside a running thread (host code, or a signal handler, which the
    kernel invokes outside the fiber) the in-place operations raise
    [Invalid_argument "Coro.<op>: no running thread"]; the suspension
    points raise [Effect.Unhandled], as a check there would cost every
    [consume]. *)

val consume : int -> unit
(** Retire [n >= 0] cycles of computation. Suspends when [n > 0]. *)

val rdtsc : unit -> Bg_engine.Cycles.t
(** Read the core's timebase register: the simulation clock at the call. *)

val syscall : Sysreq.request -> Sysreq.reply
(** Trap into the kernel; suspends until the reply. *)

val load : addr:int -> len:int -> bytes
(** Data access through the MMU (translation + DAC checks apply). *)

val store : addr:int -> bytes -> unit

val yield : unit -> unit
(** Voluntarily let another thread of the same core run. Suspends. *)

val cas : addr:int -> expected:int -> desired:int -> bool
(** Atomic compare-and-swap on a 64-bit word (lwarx/stwcx on the real
    core). The kernel performs the read-modify-write as one indivisible
    step, which is what makes user-space NPTL mutexes possible. *)

val fetch_add : addr:int -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

(** {1 Kernel side} *)

type 'c ops = {
  clock : 'c -> Bg_engine.Cycles.t;
  load : 'c -> int -> int -> bytes;  (** addr, len *)
  store : 'c -> int -> bytes -> unit;  (** addr, data *)
  cas : 'c -> int -> int -> int -> bool;  (** addr, expected, desired *)
  fetch_add : 'c -> int -> int -> int;  (** addr, delta *)
}
(** A kernel's in-place operations over a per-thread context ['c]. *)

type services = Services : 'c ops * 'c -> services  (** One thread's. *)

val idle : services
(** No thread's: each raises [Invalid_argument]. *)

(** Why a service suspends its thread. *)
type _ trap =
  | Fault : string * 'a -> 'a trap
      (** A translation fault. The value is what the access returns if
          the kernel lets the thread go on (a handled SIGSEGV). *)
  | Guard_hit : int -> unit trap
      (** A store into a DAC guard at this address; the store is dropped. *)

val trap : 'a trap -> 'a
(** Suspend the running thread on a slow path. Called by services only. *)

type step =
  | Finished
  | Crashed of exn
  | Consume of int * (unit, step) Effect.Deep.continuation
  | Syscall of Sysreq.request * (Sysreq.reply, step) Effect.Deep.continuation
  | Yield of (unit, step) Effect.Deep.continuation
  | Trap : 'a trap * ('a, step) Effect.Deep.continuation -> step
(** Continuations are one-shot: resume each at most once, or drop it to
    discard the thread. *)

val start : services -> (unit -> unit) -> step
(** Run [f] with [services] published until it finishes, crashes, or
    suspends for the first time. *)

val resume : services -> ('a, step) Effect.Deep.continuation -> 'a -> step
(** Continue a suspended thread with [services] published until it next
    suspends, finishes or crashes. *)
