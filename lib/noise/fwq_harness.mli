(** Runs the FWQ benchmark on both kernels and reports Figs 5–7 style
    results: per-thread distributions of 12,000 fixed work quanta. *)

type thread_report = {
  thread : int;
  samples : int array;  (** per-iteration cycles, in iteration order *)
  min_cycles : int;
  max_cycles : int;
  mean_cycles : float;
  spread_percent : float;  (** (max-min)/min*100, the paper's metric *)
}

type report = { kernel : string; threads : thread_report list }

val run_on_cnk : ?samples:int -> ?seed:int64 -> unit -> report
(** One CNK node, one FWQ thread per core. *)

val run_on_fwk :
  ?samples:int ->
  ?noise_seed:int64 ->
  ?daemons:(core:int -> Bg_fwk.Noise_model.daemon list) ->
  unit ->
  report
(** One FWK node, the same program image through the same harness
    function. Default daemons: the SUSE set. *)

val histogram : thread_report -> bins:int -> (float * int) list
(** (bin lower edge in cycles, count) pairs — the dot clouds of Figs 5–7. *)

val max_spread : report -> float
val pp : Format.formatter -> report -> unit
