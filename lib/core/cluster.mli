(** Convenience harness: a whole CNK machine ready to run jobs.

    Builds the simulated installation (chips + networks), one CIOD per
    I/O node (sharing one filesystem, like a common GPFS mount), and one
    CNK per compute node; boots everything. This is what bin/, examples/
    and bench/ use to go from "I have a program closure" to "it ran on N
    nodes". [Bg_fwk.Cluster] is the same harness for the Linux-like
    kernel; both implement {!Kernel.CLUSTER}. *)

include Kernel.CLUSTER with type node = Node.t

val create :
  ?params:Bg_hw.Params.t ->
  ?seed:int64 ->
  ?mapping_config:Mapping.config ->
  ?nodes_per_io_node:int ->
  ?cio:Bg_cio.Reliable.config ->
  dims:int * int * int ->
  unit ->
  t
(** Create one CNK node per torus rank; {!boot_all} boots them. [cio] selects the function-ship transport for every CIOD/CNK pair
    (default {!Bg_cio.Reliable.off}: the legacy lossless protocol). *)

val fs : t -> Bg_cio.Fs.t
(** The shared filesystem behind all I/O nodes. *)

val ciod_for : t -> rank:int -> Bg_cio.Ciod.t
val ciod : t -> io_node:int -> Bg_cio.Ciod.t
val io_node_count : t -> int

val pset_ranks : t -> io_node:int -> int list
(** The compute-node ranks served by [io_node] — the blast radius of an
    unrecoverable CIOD failure. *)
