(** Per-I/O-node job manifest: the control-system-resident record a CIOD
    restart rebuilds its state from.

    On the real machine the control system knows which processes a CIOD
    was proxying; here the manifest additionally holds each proxy's
    kernel-visible state as of its last executed request and the replay
    cache of last replies per (rank, pid, tid).
    The manifest deliberately survives {!Ciod.crash} — it models stable
    storage outside the daemon — which is what makes re-executed writes
    idempotent even across a crash between execution and reply delivery. *)

type t

val create : unit -> t

val add_proc : t -> rank:int -> pid:int -> unit
val procs : t -> (int * int) list
(** Sorted (rank, pid) pairs of every live process behind this I/O node. *)

val record_proxy : t -> rank:int -> pid:int -> Ioproxy.t -> unit
(** Record [p] as the proxy of (rank, pid) after it executed a request.
    The manifest keeps [p] itself and takes its snapshot only when one is
    asked for ({!proxy_snapshot}, {!capture}), so recording costs
    nothing per request. That snapshot equals the one taken at record
    time because CIOD records a proxy in the same event as every request
    it executes, and closes it only when the entry is removed. *)

val proxy_snapshot : t -> rank:int -> pid:int -> Ioproxy.snapshot option

val record_reply : t -> rank:int -> pid:int -> tid:int -> seq:int -> frame:bytes -> unit
(** Cache the framed reply for the latest executed request of this thread.
    Threads spin on one outstanding request, so a depth-1 cache per tid
    suffices. *)

(** How a request frame's [seq] stands against the thread's cached reply. *)
type request =
  | Fresh  (** newer than the cached entry, or none: execute it *)
  | Replay of bytes  (** a duplicate of the cached request: resend this reply *)
  | Acked  (** a duplicate of a request whose reply was already acked *)
  | Stale  (** older than the cached request *)

val classify : t -> rank:int -> pid:int -> tid:int -> seq:int -> request
(** Allocates only for [Replay]. *)

val retire_reply : t -> rank:int -> pid:int -> tid:int -> seq:int -> unit
(** Ack from the CNK side: reclaim the cached frame bytes for [seq] but
    keep the entry's sequence number as an acked watermark. The entry must
    not be removed outright — the collective net can reorder the Ack ahead
    of a straggling retransmitted copy of the request, and without the
    watermark that copy would look brand new and be re-executed (a re-run
    write double-appends). A stale seq is a no-op. *)

val remove_rank : t -> rank:int -> unit
(** Forget every process, proxy snapshot, and cached reply of [rank]
    (job teardown). *)

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state, little-endian, sorted; cached
    reply frames appear as length + digest. *)
