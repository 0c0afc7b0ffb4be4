(* The four benchmark workloads. Each builds its inputs from the seed,
   drives the simulator through the same public entry points the tools
   use, and checks its own outputs. Why each one is here, which layer it
   stresses and which it bypasses, is recorded in BENCHMARK.json. *)

open Bg_engine
module Obs = Bg_obs.Obs
module Causal = Bg_obs.Causal
module Libc = Bg_rt.Libc
module P = Phase

(* ------------------------------------------------------------------ *)
(* fwq-cnk-512: FWQ, one thread per core, on an 8x8x8 CNK partition,
   collectors off. Every core keeps a timer pending, so the event queue
   runs about 2,048 deep: engine, kabi and cnk dispatch dominate. *)

let fwq_dims = (8, 8, 8)
let fwq_threads = 4
let fwq_samples = 300

(* Paper Fig 7: CNK's maximum FWQ variation stays below 0.006%. *)
let paper_cnk_spread_pct = 0.006

let fwq it ~seed =
  let cluster =
    P.phase it Setup "create" (fun () ->
        Cnk.Cluster.create ~seed ~dims:fwq_dims ())
  in
  P.phase it Setup "boot" ~keys:[ "cnk.boot_s" ] (fun () -> Cnk.Cluster.boot_all cluster);
  let nodes = Cnk.Cluster.nodes cluster in
  (* one program instance per node, so every node's quanta are checked *)
  let programs =
    P.phase it Setup "generate" (fun () ->
        Array.map (fun _ -> Bg_apps.Fwq.program ~samples:fwq_samples ~threads:fwq_threads ()) nodes)
  in
  P.phase it Setup "launch" ~keys:[ "cnk.launch_s" ] ~alloc_keys:[ "cnk.launch_mwords" ] (fun () ->
      let image =
        Image.executable ~name:"fwq" (fun () -> (fst programs.(Libc.rank ())) ())
      in
      Cnk.Cluster.launch_all cluster (Job.create ~name:"fwq" image));
  P.drive it ~layer:"cnk" (Cnk.Cluster.sim cluster);
  P.phase it Post "collect" (fun () ->
      let spread = ref 0.0 in
      Array.iter
        (fun (_, collect) ->
          let r = collect () in
          List.iter
            (fun (_, samples) ->
              let short = ref 0 in
              Array.iter
                (fun s ->
                  P.digest_int it s;
                  if s < Bg_apps.Daxpy.quantum_cycles then incr short)
                samples;
              P.count it ~attempted:fwq_samples ~failed:!short)
            r.Bg_apps.Fwq.thread_samples;
          spread := Float.max !spread (Bg_apps.Fwq.max_spread_percent r))
        programs;
      P.check it (!spread < paper_cnk_spread_pct);
      P.addi it "runtime.syscalls"
        (Array.fold_left (fun a n -> a + Cnk.Node.syscall_count n) 0 nodes))

(* ------------------------------------------------------------------ *)
(* io-ship-16: 16 CNK ranks share one I/O node over the reliable
   (CRC-framed) function-ship transport. Each writes a seeded file in
   64-byte pwrites, then reads it back with preads and verifies every
   byte. Spans and causal collectors are on (off only in the traced
   run's obs pair). The queue stays shallow; host time goes to
   runtime -> cio marshaling -> collective net -> CIOD/Fs, and to obs. *)

let io_ranks = 16
let io_blocks = 1000
let io_block_bytes = 64
let io_path rank = Printf.sprintf "/perfbench-rank%02d.dat" rank
let io_open_flags = { Sysreq.o_rdwr with Sysreq.creat = true; trunc = true }

(* The function-shipped calls one rank issues, as (request, reply) pairs:
   the input of the codec isolation cell. *)
let io_request_mix () =
  let blk = Bytes.make io_block_bytes 'x' in
  List.concat
    [
      [ (Sysreq.Open { path = io_path 0; flags = io_open_flags; mode = 0o644 }, Sysreq.R_int 3) ];
      List.init io_blocks (fun i ->
          (Sysreq.Pwrite { fd = 3; data = blk; offset = i * io_block_bytes },
           Sysreq.R_int io_block_bytes));
      List.init io_blocks (fun i ->
          (Sysreq.Pread { fd = 3; len = io_block_bytes; offset = i * io_block_bytes },
           Sysreq.R_bytes blk));
      [ (Sysreq.Close 3, Sysreq.R_unit) ];
    ]

let io_ops_per_rank = (2 * io_blocks) + 2

let io ~collectors it ~seed =
  let cluster =
    P.phase it Setup "create" (fun () ->
        let c =
          Cnk.Cluster.create ~seed ~dims:(io_ranks, 1, 1) ~nodes_per_io_node:io_ranks
            ~cio:Bg_cio.Reliable.default_on ()
        in
        let m = Cnk.Cluster.machine c in
        Obs.set_enabled (Machine.obs m) collectors;
        Causal.set_enabled (Machine.causal m) collectors;
        c)
  in
  P.phase it Setup "boot" ~keys:[ "cnk.boot_s" ] (fun () -> Cnk.Cluster.boot_all cluster);
  let blocks =
    P.phase it Setup "generate" (fun () ->
        let rng = Rng.create seed in
        Array.init io_ranks (fun _ ->
            Array.init io_blocks (fun _ ->
                Bytes.init io_block_bytes (fun _ -> Char.chr (Rng.int rng 256)))))
  in
  let ok = Array.make io_ranks 0 and bad = Array.make io_ranks 0 in
  let readback = Array.make io_ranks Fnv.empty in
  P.phase it Setup "launch" ~keys:[ "cnk.launch_s" ] ~alloc_keys:[ "cnk.launch_mwords" ] (fun () ->
      let entry () =
        let r = Libc.rank () in
        let op f =
          match f () with
          | true -> ok.(r) <- ok.(r) + 1
          | false -> bad.(r) <- bad.(r) + 1
          | exception Sysreq.Syscall_error _ -> bad.(r) <- bad.(r) + 1
        in
        let fd = ref (-1) in
        op (fun () ->
            fd := Libc.openf ~flags:io_open_flags ~mode:0o644 (io_path r);
            !fd >= 0);
        Array.iteri
          (fun i blk ->
            op (fun () -> Libc.pwrite !fd blk ~offset:(i * io_block_bytes) = io_block_bytes))
          blocks.(r);
        Array.iteri
          (fun i blk ->
            op (fun () ->
                let got = Libc.pread !fd ~len:io_block_bytes ~offset:(i * io_block_bytes) in
                readback.(r) <- Fnv.add_bytes readback.(r) got;
                Bytes.equal got blk))
          blocks.(r);
        op (fun () -> Libc.close !fd; true)
      in
      Cnk.Cluster.launch_all cluster
        (Job.create ~name:"ioship" (Image.executable ~name:"ioship" entry)));
  let ciod = Cnk.Cluster.ciod cluster ~io_node:0 in
  P.drive it ~layer:"cnk" (Cnk.Cluster.sim cluster) ~extra_sample:(fun () ->
      P.set_max it "cio.queue_depth_peak" (float_of_int (Bg_cio.Ciod.queue_depth ciod)));
  P.phase it Post "collect" (fun () ->
      for r = 0 to io_ranks - 1 do
        (* calls a rank never got to issue count as failed *)
        let missing = io_ops_per_rank - ok.(r) - bad.(r) in
        P.count it ~attempted:io_ops_per_rank ~failed:(bad.(r) + max 0 missing);
        P.digest_int64 it readback.(r)
      done;
      let m = Cnk.Cluster.machine cluster in
      P.addi it "runtime.syscalls"
        (Array.fold_left (fun a n -> a + Cnk.Node.syscall_count n) 0 (Cnk.Cluster.nodes cluster));
      P.addi it "cio.requests" (Bg_cio.Ciod.requests_served ciod);
      P.addi it "cio.retransmits" (Bg_cio.Ciod.retransmits_seen ciod);
      P.addi it "cio.queue_rejects" (Bg_cio.Ciod.queue_rejects ciod);
      P.addi it "obs.spans" (Obs.span_count (Machine.obs m));
      P.addi it "obs.dropped_spans" (Obs.dropped_spans (Machine.obs m));
      P.addi it "obs.causal_nodes" (Causal.node_count (Machine.causal m));
      P.addi it "obs.causal_dropped" (Causal.dropped (Machine.causal m)))

(* ------------------------------------------------------------------ *)
(* cg-64: the CG solver (halo exchange over the DMA fabric plus two
   allreduces per iteration) on 64 CNK nodes with user-space DMA, then
   the same image on 64 FWK nodes with kernel-mediated DMA and explicit
   per-rank noise seeds. Host time goes to msg, hw.dma, hw.torus,
   hw.collective and the FWK tick/daemon/paging paths. *)

let cg_dims = (4, 4, 4)
let cg_ranks = 64
let cg_cells = 32
let cg_iterations = 120

(* Explicit: the default derives from [Machine.instance], which depends
   on how many machines the process built before this one. *)
let fwk_noise_seed ~seed ~rank = Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int rank)

let cg_program it machine ~path =
  P.phase it Setup "generate" (fun () ->
      let fabric = Bg_msg.Dcmf.make_fabric ~path machine in
      for r = 0 to cg_ranks - 1 do
        ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
      done;
      let coll = Bg_msg.Mpi.Coll.create fabric ~participants:cg_ranks in
      Bg_apps.Cg_solver.program ~fabric ~coll ~cells_per_rank:cg_cells ~iterations:cg_iterations
        ())

(* The host reference sums in another order, so agreement is relative
   (the tolerance the library's own tests use). *)
let cg_check it (machine : Machine.t) ~reference ~faults (r : Bg_apps.Cg_solver.report) =
  let rel = Float.abs (r.final_residual -. reference) /. Float.max reference 1e-300 in
  P.check it (faults = 0 && rel < 1e-6 && r.final_residual < 0.01 *. r.initial_residual);
  P.digest_int it r.wall_cycles;
  P.digest_int64 it (Int64.bits_of_float r.final_residual);
  P.addi it "msg.iterations" r.iterations_run;
  for rank = 0 to cg_ranks - 1 do
    let s = Bg_hw.Dma.stats (Machine.dma machine rank) in
    P.addi it "hw.dma_descriptors" s.Bg_hw.Dma.injected;
    P.addi it "hw.dma_stalls" s.Bg_hw.Dma.inject_stalls
  done;
  P.addi it "hw.torus_transfers" (Bg_hw.Torus.transfers_started machine.Machine.torus);
  P.addi it "hw.torus_busy_cycles" (Bg_hw.Torus.total_busy_cycles machine.Machine.torus)

let cg it ~seed =
  let reference =
    P.phase it Setup "generate" (fun () ->
        Bg_apps.Cg_solver.reference_final_residual ~ranks:cg_ranks ~cells_per_rank:cg_cells
          ~iterations:cg_iterations)
  in
  P.part it "kernel.cnk" (fun () ->
      let cluster =
        P.phase it Setup "create" (fun () ->
            Cnk.Cluster.create ~seed ~dims:cg_dims ())
      in
      P.phase it Setup "boot" ~keys:[ "cnk.boot_s" ] (fun () -> Cnk.Cluster.boot_all cluster);
      let machine = Cnk.Cluster.machine cluster in
      let entry, collect = cg_program it machine ~path:Bg_msg.Dcmf.Dma_user in
      let finished = ref 0 in
      P.phase it Setup "launch" ~keys:[ "cnk.launch_s" ] ~alloc_keys:[ "cnk.launch_mwords" ]
        (fun () ->
          Array.iter
            (fun n -> Cnk.Node.on_job_complete n (fun () -> incr finished))
            (Cnk.Cluster.nodes cluster);
          Cnk.Cluster.launch_all cluster
            (Job.create ~name:"cg" (Image.executable ~name:"cg" entry)));
      P.drive it ~layer:"cnk" (Cnk.Cluster.sim cluster);
      P.phase it Post "collect" (fun () ->
          let faults =
            Array.fold_left (fun a n -> a + List.length (Cnk.Node.faults n)) 0
              (Cnk.Cluster.nodes cluster)
            + (cg_ranks - !finished)
          in
          cg_check it machine ~reference ~faults (collect ())));
  P.part it "kernel.fwk" (fun () ->
      let machine, nodes =
        P.phase it Setup "create" (fun () ->
            let m = Machine.create ~seed ~dims:cg_dims () in
            ( m,
              Array.init cg_ranks (fun rank ->
                  Bg_fwk.Node.create ~noise_seed:(fwk_noise_seed ~seed ~rank) m ~rank
                    ~stripped:true ()) ))
      in
      let sim = Machine.sim machine in
      P.phase it Setup "boot" ~keys:[ "fwk.boot_s" ] (fun () ->
          let remaining = ref cg_ranks in
          Array.iter (fun n -> Bg_fwk.Node.boot n ~on_ready:(fun () -> decr remaining)) nodes;
          while !remaining > 0 do
            if not (Sim.step sim) then failwith "cg-64: FWK drained before boot finished"
          done);
      let entry, collect = cg_program it machine ~path:Bg_msg.Dcmf.Dma_kernel in
      let finished = ref 0 in
      P.phase it Setup "launch" ~keys:[ "fwk.launch_s" ] ~alloc_keys:[ "fwk.launch_mwords" ]
        (fun () ->
          let job = Job.create ~name:"cg" (Image.executable ~name:"cg" entry) in
          Array.iter
            (fun n ->
              Bg_fwk.Node.on_job_complete n (fun () -> incr finished);
              match Bg_fwk.Node.launch n job with
              | Ok () -> ()
              | Error e -> failwith ("cg-64: FWK launch: " ^ e))
            nodes);
      P.drive it ~layer:"fwk" sim;
      P.phase it Post "collect" (fun () ->
          let faults =
            Array.fold_left (fun a n -> a + List.length (Bg_fwk.Node.faults n)) 0 nodes
            + (cg_ranks - !finished)
          in
          cg_check it machine ~reference ~faults (collect ())))

(* ------------------------------------------------------------------ *)
(* jobsched-1040: sched_tool's stream (52 tenants x 20 jobs on 64 nodes,
   spares 62/63, two mid-queue fault bursts) under each policy in turn.
   Few events, many words per event: control, sched and resilience.

   The job stream is the one sched_tool replays by default, so every
   seed offers the same 1,040 arrivals; streams drawn from other seeds
   differ by a third in allocated words, which would swamp the
   run-to-run differences this benchmark exists to resolve. The seed
   moves the two fault bursts instead ([fault_plan]). *)

module Workload = Bg_sched.Workload
module Strategy = Bg_sched.Strategy
module Service = Bg_sched.Service
module Slo = Bg_sched.Slo
module Res = Bg_resilience

let js_dims = (4, 4, 4)
let js_nodes = 64
let js_tenants = 52
let js_jobs_per_tenant = 20
let js_spares = [ 62; 63 ]
let js_stream_seed = 1L

let js_policy =
  {
    Res.Policy.default with
    Res.Policy.spare_substitution = true;
    degraded_after = 2;
    critical_after = 6;
    recovery_cooldown = 1_500_000;
    shape_cap_degraded = Some (2, 2, 2);
  }

(* sched_tool's victims (nodes 9 and 27, links 0/0 and 13/2, I/O node 3);
   the seed moves each burst by up to 250k cycles either way. *)
let fault_plan seed =
  let rng = Rng.split (Rng.create seed) "perfbench.jobsched.faults" in
  let jitter () = Rng.int rng 500_001 - 250_000 in
  let burst1 = 2_000_000 + jitter () in
  (burst1, 4_500_000 + jitter ())

let jobsched_policy it ~seed kind =
  let name = Strategy.kind_name kind in
  let cluster =
    P.phase it Setup "create" (fun () ->
        let c = Cnk.Cluster.create ~dims:js_dims ~seed ~nodes_per_io_node:8 () in
        Obs.set_enabled (Machine.obs (Cnk.Cluster.machine c)) true;
        c)
  in
  P.phase it Setup "boot" ~keys:[ "cnk.boot_s" ] (fun () -> Cnk.Cluster.boot_all cluster);
  let specs, plan =
    P.phase it Setup "generate" ~keys:[ "sched.generate_s" ] (fun () ->
        ( Workload.generate ~seed:js_stream_seed
            (Workload.mixed_tenants ~tenants:js_tenants ~jobs_per_tenant:js_jobs_per_tenant),
          fault_plan seed ))
  in
  let sim = Cnk.Cluster.sim cluster in
  let svc, policy =
    P.phase it Setup "launch" ~keys:[ "cnk.launch_s" ] ~alloc_keys:[ "cnk.launch_mwords" ]
      (fun () ->
        let svc = Service.create ~kind cluster specs in
        let sched = Service.scheduler svc in
        List.iter
          (fun rank ->
            Bg_control.Partition.set_spare (Bg_control.Scheduler.partition sched) ~rank true)
          js_spares;
        let inj = Res.Injector.attach cluster in
        let policy = Res.Policy.attach ~config:js_policy sched in
        let at cycle f = ignore (Sim.schedule_at sim cycle f) in
        let inject e = Res.Injector.inject_now inj e in
        let burst1, burst2 = plan in
        at burst1 (fun () ->
            inject (Res.Fault_event.Node_death { rank = 9 });
            inject (Res.Fault_event.Link_failure { rank = 0; dir = 0 }));
        at burst2 (fun () ->
            inject (Res.Fault_event.Node_death { rank = 27 });
            inject (Res.Fault_event.Link_failure { rank = 13; dir = 2 });
            inject (Res.Fault_event.Ciod_crash { io_node = 3; fatal = true }));
        (svc, policy))
  in
  P.drive it ~layer:"cnk" sim
    ~keys:[ "sched.policy_s." ^ name ]
    ~alloc_keys:[ "sched.drive_mwords" ]
    ~run:(fun () -> Service.run svc);
  P.phase it Post "collect" (fun () ->
      let obs = Machine.obs (Cnk.Cluster.machine cluster) in
      let strategy = Service.strategy svc in
      let slo =
        P.phase it Post "slo" ~keys:[ "sched.slo_s" ] (fun () ->
            Slo.collect obs ~tenants:(Service.tenants_of specs) ~policy:name
              ~seed:(Int64.to_int js_stream_seed) ~total_nodes:js_nodes
              ~makespan:(Service.makespan svc) ~backfilled:(Strategy.backfilled strategy)
              ~gangs_started:(Strategy.gangs_started strategy) ())
      in
      let offered = Service.offered svc in
      let refused = Service.refused svc in
      let shed = Res.Policy.jobs_shed policy in
      let expected = js_tenants * js_jobs_per_tenant in
      let accounted = slo.Slo.completed_total + slo.Slo.failed_total + shed + refused in
      (* one operation per offered arrival; arrivals never offered or
         never accounted for are the failures *)
      P.count it ~attempted:expected
        ~failed:(abs (expected - offered) + abs (offered - accounted));
      P.digest_int64 it (Slo.digest slo);
      let b = Buffer.create 4096 in
      Bg_control.Scheduler.capture (Service.scheduler svc) b;
      P.digest_string it (Buffer.contents b);
      P.addi it "sched.offered" offered;
      P.addi it "sched.backfilled" (Strategy.backfilled strategy);
      P.addi it "sched.gangs" (Strategy.gangs_started strategy);
      P.set_max it "sched.wait_p99_cycles" (Slo.max_wait_p99 slo);
      P.addi it "control.completed" slo.Slo.completed_total;
      P.addi it "control.failed" slo.Slo.failed_total;
      P.addi it "control.shed" shed;
      P.addi it "control.refused" refused;
      P.addi it "control.walltime_kills"
        (Obs.counter_value obs ~subsystem:"scheduler" ~name:"walltime_kills" ());
      P.addi it "resilience.substitutions"
        (Res.Recovery.substitutions (Res.Policy.recovery policy));
      P.addi it "resilience.transitions" (Res.Policy.transitions policy);
      P.addi it "obs.spans" (Obs.span_count obs);
      P.addi it "obs.dropped_spans" (Obs.dropped_spans obs))

let jobsched it ~seed =
  List.iter
    (fun kind ->
      P.part it ("policy." ^ Strategy.kind_name kind) (fun () -> jobsched_policy it ~seed kind))
    Strategy.all_kinds

(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  run : P.t -> seed:int64 -> unit;
  obs_off : (P.t -> seed:int64 -> unit) option;
      (** the same workload with collectors off, for [obs.overhead_s] *)
  request_mix : (Sysreq.request * Sysreq.reply) list;
      (** what the codec isolation cell marshals; empty when the workload
          ships no I/O *)
}

let all =
  [
    { name = "fwq-cnk-512"; run = fwq; obs_off = None; request_mix = [] };
    {
      name = "io-ship-16";
      run = io ~collectors:true;
      obs_off = Some (io ~collectors:false);
      request_mix = io_request_mix ();
    };
    { name = "cg-64"; run = cg; obs_off = None; request_mix = [] };
    { name = "jobsched-1040"; run = jobsched; obs_off = None; request_mix = [] };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
