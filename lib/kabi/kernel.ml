open Bg_engine
module Obs = Bg_obs.Obs
module Accounting = Bg_obs.Accounting
module Causal = Bg_obs.Causal
module Upc = Bg_hw.Upc

module type CLUSTER = sig
  type t
  type node

  val machine : t -> Machine.t
  val sim : t -> Sim.t
  val nodes : t -> node array
  val node : t -> int -> node
  val boot_all : t -> unit
  val launch_all : t -> ?ranks:int list -> Job.t -> unit
  val run_job : t -> ?ranks:int list -> Job.t -> unit
  val run_until_quiet : t -> unit
end

module type NODE = sig
  type t

  val boot : t -> on_ready:(unit -> unit) -> unit
  val launch : t -> Job.t -> (unit, string) result
  val on_job_complete : t -> (unit -> unit) -> unit
end

module Drive (N : NODE) = struct
  let all_ranks nodes = function Some r -> r | None -> List.init (Array.length nodes) Fun.id

  let boot_all sim nodes =
    let remaining = ref (Array.length nodes) in
    Array.iter (fun n -> N.boot n ~on_ready:(fun () -> decr remaining)) nodes;
    let rec pump () =
      if !remaining > 0 then
        if Sim.step sim then pump ()
        else failwith "Cluster.boot_all: simulation drained before boot finished"
    in
    pump ()

  let launch_all nodes ?ranks job =
    List.iter
      (fun rank ->
        match N.launch nodes.(rank) job with
        | Ok () -> ()
        | Error e -> failwith (Printf.sprintf "launch on rank %d failed: %s" rank e))
      (all_ranks nodes ranks)

  let run_job sim nodes ?ranks job =
    let ranks = all_ranks nodes ranks in
    let remaining = ref (List.length ranks) in
    List.iter (fun rank -> N.on_job_complete nodes.(rank) (fun () -> decr remaining)) ranks;
    launch_all nodes ~ranks job;
    let rec pump () =
      if !remaining > 0 then
        if Sim.step sim then pump ()
        else
          failwith
            (Printf.sprintf "Cluster.run_job: sim drained with %d node(s) unfinished"
               !remaining)
    in
    pump ()
end

let emit (m : Machine.t) ~rank label value =
  Sim.emit m.sim ~label ~value:(Int64.of_int ((rank * 1_000_000) + value))

(* Both kernels use the same wording and counter, so the service node's
   database reads uniformly across kernels. *)
let ras (m : Machine.t) ~rank severity message =
  Obs.incr m.obs ~rank ~subsystem:"kernel" ~name:"ras_emitted" ();
  Machine.ras_emit m ~rank ~severity ~message

let causal_mint ?chain (m : Machine.t) ~rank ~cat ~name ~core =
  if Causal.enabled m.causal then
    Causal.mint m.causal ?chain ~cat ~name ~rank ~core ~now:(Sim.now m.sim) ()
  else Causal.none

let acct_switch (m : Machine.t) ~rank ~core state =
  Accounting.switch m.acct ~rank ~core ~now:(Sim.now m.sim) state

let enter_syscall (m : Machine.t) ~rank ~core req services k =
  let o = m.obs in
  match req with
  | Sysreq.Exit_thread _ | Sysreq.Exit_group _ -> fun reply -> Coro.resume services k reply
  | _ when not (Obs.enabled o || Causal.enabled m.causal) ->
    acct_switch m ~rank ~core Accounting.Syscall;
    fun reply ->
      acct_switch m ~rank ~core Accounting.App;
      Coro.resume services k reply
  | _ ->
    let ({ Sysreq.call = name; _ } as names) = Sysreq.request_names req in
    let start = Sim.now m.sim in
    let h =
      if Obs.enabled o then Some (Obs.span_begin o ~cat:"syscall" ~name ~rank ~core ~now:start)
      else None
    in
    (* Causal: entry and exit are program-order chained on this core's
       lane, so whatever the syscall caused in between (a function ship,
       a DMA injection) hangs between two anchors. *)
    ignore (causal_mint m ~rank ~cat:"syscall" ~name:names.entry ~core);
    acct_switch m ~rank ~core Accounting.Syscall;
    fun reply ->
      acct_switch m ~rank ~core Accounting.App;
      let now = Sim.now m.sim in
      (match h with
      | Some h ->
        Obs.span_end o h ~now;
        Obs.observe_cycles o ~rank ~subsystem:"syscall" ~name (now - start);
        Obs.incr o ~rank ~core ~subsystem:"syscall" ~name ()
      | None -> ());
      ignore (causal_mint m ~rank ~cat:"syscall" ~name:names.exit ~core);
      Coro.resume services k reply

exception Fault of string

let ops ~clock ~load ~store ~read_word ~write_word =
  let fault reason v = Coro.trap (Coro.Fault (reason, v)) in
  {
    Coro.clock = (fun (n, th) -> clock n th);
    load =
      (fun (n, th) addr len ->
        try load n th addr len with Fault r -> fault r (Bytes.make len '\000'));
    store = (fun (n, th) addr data -> try store n th addr data with Fault r -> fault r ());
    cas =
      (fun (n, th) addr expected desired ->
        try
          let v = read_word n th addr in
          if v = expected then write_word n th addr desired;
          v = expected
        with Fault r -> fault r false);
    fetch_add =
      (fun (n, th) addr delta ->
        try
          let v = read_word n th addr in
          write_word n th addr (v + delta);
          v
        with Fault r -> fault r 0);
  }

(* The residual noise floor: a block of [n] cycles from [start] that
   spans k DRAM refresh windows pays k short stalls. *)
let refresh_stretch chip start n =
  let p = Bg_hw.Chip.params chip in
  let interval = p.Bg_hw.Params.dram_refresh_interval_cycles in
  let stall = p.Bg_hw.Params.dram_refresh_stall_cycles in
  if interval <= 0 then n else n + ((((start + n) / interval) - (start / interval)) * stall)

let query_perf chip op =
  let upc = Bg_hw.Chip.upc chip in
  match op with
  | Sysreq.Perf_start ->
    Upc.start upc;
    Sysreq.R_unit
  | Sysreq.Perf_stop ->
    Upc.stop upc;
    Sysreq.R_unit
  | Sysreq.Perf_freeze ->
    Upc.freeze upc;
    Sysreq.R_unit
  | Sysreq.Perf_read ->
    let readings =
      match Upc.frozen_snapshot upc with Some rs -> rs | None -> Upc.snapshot upc
    in
    Sysreq.R_perf
      (List.map
         (fun (r : Upc.reading) ->
           { Sysreq.pr_event = r.Upc.event; pr_core = r.Upc.core; pr_count = r.Upc.count })
         readings)
