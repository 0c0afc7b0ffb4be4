(** CRC-framed envelope for the reliable CNK ⇔ CIOD transport.

    When the collective network is lossy, raw {!Proto} bytes are wrapped in
    a frame carrying a CRC-32 over everything after the checksum field, the
    originating (rank, pid, tid), a per-thread sequence number, and a kind
    tag distinguishing requests, replies, and acks. A single flipped bit
    anywhere in the frame is always detected: either the magic/kind/CRC
    bytes change (magic or kind mismatch, or stored CRC differs) or the
    covered body no longer matches the stored CRC.

    Frames are only used when {!Reliable.config.enabled} is set; the
    default transport ships bare Proto bytes, bit-identical to the
    pre-reliability protocol. *)

type kind = Request | Reply | Ack

type t = {
  kind : kind;
  rank : int;
  pid : int;
  tid : int;
  seq : int;  (** per-(rank,pid,tid) sequence number, assigned by the CNK side *)
  ctx : int;  (** opaque causal context ([Bg_obs.Causal.ctx]); 0 = none. Rides
                  the wire so a retransmission — a byte-for-byte resend of the
                  encoded frame — carries the {e same} context as the original. *)
  payload : bytes;  (** Proto-encoded message; empty for [Ack] *)
}

type error = Malformed of string | Corrupt

val error_message : error -> string

val encode : t -> bytes
val decode : bytes -> (t, error) result
(** Never raises and never writes to its argument. The CRC is checked
    in place; the only copy is the returned payload. *)
