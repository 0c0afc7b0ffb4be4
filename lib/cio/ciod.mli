(** CIOD — the Control and I/O Daemon running on each (Linux) I/O node.

    Receives function-shipped messages from the collective network,
    routes each to the ioproxy mirroring the originating compute-node
    process, executes it against the filesystem, and ships the marshaled
    reply back down the tree (paper Fig 2).

    The I/O node has four cores; request service occupies one of four
    worker slots, so bursts from many compute nodes queue — the
    aggregation that turns 64 compute nodes into one filesystem client.

    With {!Reliable.config.enabled} (off by default), traffic is
    {!Frame}-wrapped and the daemon becomes crash-tolerant: requests are
    sequence-numbered per (rank, pid, tid); a replay cache suppresses
    duplicate execution (a retransmitted [write] must not double-append)
    by resending the cached reply; positive acks reclaim cached reply
    bytes while leaving the acked sequence number as a watermark, so even
    a duplicate reordered behind its own ack is never re-executed; the
    worker queue is bounded; and {!crash}/{!restart} model the daemon
    dying mid-flight and being rebuilt from the job {!Manifest}. *)

type t

val create : Machine.t -> ?fs:Fs.t -> ?config:Reliable.config -> io_node:int -> unit -> t
(** [fs] lets several I/O nodes share one filesystem (a "network mount");
    by default each CIOD gets a private one. [config] defaults to
    {!Reliable.off}: bare Proto bytes on the wire, bit-identical to the
    pre-reliability protocol. *)

val fs : t -> Fs.t
val io_node : t -> int
val config : t -> Reliable.config
val alive : t -> bool

val register_node : t -> rank:int -> deliver:(bytes -> unit) -> unit
(** The compute-node kernel registers how replies reach it: [deliver] is
    invoked when the reply message arrives back at node [rank]. *)

val job_start : t -> rank:int -> pids:int list -> unit
(** Create the ioproxies for a job's processes on [rank] and enter them
    into the manifest. *)

val job_end : t -> rank:int -> unit
(** Tear down rank's proxies, closing their descriptors, and drop the
    rank from the manifest. *)

val submit : t -> bytes -> unit
(** A marshaled message has arrived at the I/O node (the uplink transit is
    charged by the caller). Anything arriving while the daemon is down is
    dropped and counted, on either transport — a crashed CIOD reads as
    message loss, never as a fresh daemon answering. In the default mode
    the message is a bare Proto request: decode, queue on a worker,
    execute, ship the reply; a malformed message raises [Failure]. In
    reliable mode it is a {!Frame}: CRC failures and malformed frames are
    dropped silently (counted in the ["ciod"] Obs subsystem; the sender's
    timeout re-drives), duplicates at or below the acked watermark are
    suppressed, and duplicates of the last executed request are answered
    from the replay cache without re-execution. *)

val crash : t -> unit
(** Kill the daemon mid-flight: queued work is cancelled, proxies and all
    daemon-resident state are lost. The {!Manifest} survives (it models
    control-system storage). Idempotent while down. *)

val restart : t -> unit
(** Bring a crashed daemon back: proxies are rebuilt from their manifest
    snapshots, so descriptors, offsets and cwd resume as of the last
    executed request. No-op while alive. *)

val on_restart : t -> (unit -> unit) -> unit
(** Subscribe to daemon restarts (control-system initiated or injector
    auto-restart alike): [f] runs after the proxies are rebuilt. The
    self-healing policy uses this to clear a pending escalation when a
    daemon comes back by any path. *)

val requests_served : t -> int
val retransmits_seen : t -> int
val queue_rejects : t -> int
val crashes : t -> int
val queue_depth : t -> int
val proxy_count : t -> int

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state — worker queues, in-flight service
    shapes, proxies, manifest, and the filesystem — into [b]. *)
