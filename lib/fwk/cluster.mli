(** Convenience harness: a whole FWK machine ready to run jobs.

    The Linux-side twin of [Cnk.Cluster]: one stripped-boot FWK node per
    torus rank on one simulated installation, driven through the same
    {!Kernel.CLUSTER} interface, so the paper's comparison runs one
    program image on either kernel through one function. Each node
    serves file I/O from its own local filesystem. *)

include Kernel.CLUSTER with type node = Node.t

val create :
  ?seed:int64 ->
  ?noise_seed:int64 ->
  ?daemons:(core:int -> Noise_model.daemon list) ->
  ?tick_interval:int ->
  dims:int * int * int ->
  unit ->
  t
(** Create one node per torus rank; {!boot_all} boots them. [seed] seeds
    the simulation. Rank [r]'s daemon jitter is seeded with
    [noise_seed + r]; without [noise_seed] each node takes
    {!Node.create}'s machine-instance-derived default. [daemons] and
    [tick_interval] go to every node as in {!Node.create}. *)
