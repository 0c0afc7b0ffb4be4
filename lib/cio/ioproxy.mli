(** One I/O proxy process: the Linux-side mirror of one compute-node
    process (paper §IV.A).

    The proxy owns all filesystem state on behalf of its compute-node
    process — file descriptor table, per-descriptor offsets and flags, and
    the current working directory — so CNK itself keeps essentially
    nothing. Each app thread maps to a dedicated proxy thread; here that
    means requests tagged with distinct tids are accounted separately but
    share the process-wide fd table, as POSIX threads do. *)

type t

val create : Fs.t -> rank:int -> pid:int -> t

val cwd : t -> string
val open_fds : t -> int

val handle : t -> Sysreq.request -> Sysreq.reply
(** Execute one function-shipped request against the filesystem, producing
    exactly the reply Linux would (result codes included). Requests that
    are not file I/O return [R_err ENOSYS]. *)

val close_all : t -> unit
(** Job teardown: drop every descriptor and mark the proxy closed.
    Idempotent — a second call (e.g. crash cleanup followed by job end)
    is a no-op, so a restarted CIOD reusing the same {!Fs} never tears
    down a successor proxy's descriptors. *)

val closed : t -> bool
(** True once {!close_all} has run; subsequent {!handle} calls return
    [R_err EBADF]. *)

(** {2 Crash-recovery snapshots}

    A proxy's entire kernel-visible state — cwd, fd table with flags and
    offsets, next-fd counter — can be captured and later rebuilt against
    the same filesystem, modeling the job manifest CIOD persists so a
    restarted daemon can resume a running job. *)

type snapshot

val snapshot : t -> snapshot
val restore : Fs.t -> rank:int -> pid:int -> snapshot -> t

val capture : t -> Buffer.t -> unit
(** Serialize snapshot-relevant state (cwd, fd table, offsets) into [b],
    little-endian, fds sorted. *)

val capture_snapshot : snapshot -> Buffer.t -> unit
(** Same codec for an already-taken crash-recovery snapshot. *)
