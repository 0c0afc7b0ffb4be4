(* Tests for the scheduler-as-a-service layer: workload generation
   (seeded, tenant-isolated substreams), the indexed job queue, the
   torus-aware placer, the pluggable strategy invariants (EASY head
   reservation, gang all-or-none, fair-share weighting), completion-
   event idempotence under a full queue, and the linear-scan guard. *)

open Bg_kabi
module Ctl = Bg_control
module Sch = Bg_control.Scheduler
module Jobq = Bg_control.Jobq
module Sim = Bg_engine.Sim
module Workload = Bg_sched.Workload
module Placer = Bg_sched.Placer
module Strategy = Bg_sched.Strategy
module Service = Bg_sched.Service
module Slo = Bg_sched.Slo

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_cluster ?(seed = 11L) dims =
  let cluster = Cnk.Cluster.create ~dims ~seed ~nodes_per_io_node:4 () in
  Cnk.Cluster.boot_all cluster;
  cluster

(* Small images keep load time (~1 cycle/byte on the collective net)
   small next to the runtimes these tests reason about. *)
let factory ~name ~runtime ~ranks:_ =
  Job.create ~name
    (Image.executable ~name ~text_bytes:(8 * 1024) ~data_bytes:(8 * 1024) (fun () ->
         Coro.consume runtime))

(* ------------------------------------------------------------------ *)
(* Workload generation *)

let test_workload_deterministic () =
  let tenants = Workload.mixed_tenants ~tenants:8 ~jobs_per_tenant:5 in
  let a = Workload.generate ~seed:42L tenants in
  let b = Workload.generate ~seed:42L tenants in
  check_int "count" (8 * 5) (List.length a);
  check_bool "same seed, same stream" true (a = b);
  let c = Workload.generate ~seed:43L tenants in
  check_bool "different seed, different stream" true (a <> c)

(* The satellite regression: a tenant's stream is a pure function of
   (seed, tenant record) — adding or removing *another* tenant must not
   perturb it, including its gang ids. *)
let test_workload_tenant_isolation () =
  let tenants = Workload.mixed_tenants ~tenants:9 ~jobs_per_tenant:6 in
  let removed = List.nth tenants 4 in
  let fewer =
    List.filter (fun t -> t.Workload.name <> removed.Workload.name) tenants
  in
  let project specs =
    List.filter_map
      (fun (s : Workload.spec) ->
        if s.Workload.tenant_name = removed.Workload.name then None
        else
          Some
            ( s.Workload.tenant_name,
              s.Workload.seq,
              s.Workload.arrival,
              s.Workload.nodes,
              s.Workload.runtime,
              s.Workload.walltime,
              s.Workload.comm,
              s.Workload.gang ))
      specs
  in
  let all = project (Workload.generate ~seed:7L tenants) in
  let without = project (Workload.generate ~seed:7L fewer) in
  check_bool "survivors' streams unperturbed" true (all = without)

let test_workload_gang_bursts () =
  let t =
    {
      Workload.name = "ia";
      weight = 2;
      jobs = 9;
      mean_interarrival = 100_000.;
      nodes_lo = 1;
      nodes_hi = 1;
      runtime_lo = 10_000;
      runtime_hi = 20_000;
      comm_fraction = 0.;
      runaway_fraction = 0.;
      cls = Workload.Interactive_cls;
      gang_size = 3;
    }
  in
  let specs = Workload.generate ~seed:5L [ t ] in
  check_int "9 jobs" 9 (List.length specs);
  let by_gang = Hashtbl.create 4 in
  List.iter
    (fun (s : Workload.spec) ->
      match s.Workload.gang with
      | None -> Alcotest.fail "gang tenant produced an untagged job"
      | Some g ->
        Hashtbl.replace by_gang g
          (s.Workload.arrival
          :: (try Hashtbl.find by_gang g with Not_found -> [])))
    specs;
  check_int "three bursts" 3 (Hashtbl.length by_gang);
  Hashtbl.iter
    (fun _ arrivals ->
      check_int "burst of three" 3 (List.length arrivals);
      match arrivals with
      | a :: rest -> List.iter (fun b -> check_int "burst shares arrival" a b) rest
      | [] -> ())
    by_gang

(* ------------------------------------------------------------------ *)
(* Indexed job queue *)

let test_jobq_order_and_removal () =
  let q = Jobq.create () in
  List.iter (fun k -> Jobq.append q ~key:k (k * 10)) [ 1; 2; 3; 4; 5 ];
  check_int "length" 5 (Jobq.length q);
  check_bool "mem" true (Jobq.mem q 3);
  check_bool "remove returns the value" true (Jobq.remove q 3 = Some 30);
  check_bool "removed" false (Jobq.mem q 3);
  check_bool "order preserved" true (Jobq.keys q = [ 1; 2; 4; 5 ]);
  Jobq.push_front q ~key:9 90;
  check_bool "push_front heads the line" true (Jobq.keys q = [ 9; 1; 2; 4; 5 ]);
  (match Jobq.peek q with
  | Some (k, v) ->
    check_int "peek key" 9 k;
    check_int "peek value" 90 v
  | None -> Alcotest.fail "peek on non-empty queue");
  check_bool "duplicate key rejected" true
    (try
       Jobq.append q ~key:9 99;
       false
     with Invalid_argument _ -> true)

let test_jobq_iter_safe_against_removal () =
  let q = Jobq.create () in
  List.iter (fun k -> Jobq.append q ~key:k k) [ 1; 2; 3; 4; 5; 6 ];
  (* remove the current node mid-iteration, like shed_backfill does *)
  Jobq.iter q (fun k _ -> if k mod 2 = 0 then ignore (Jobq.remove q k));
  check_bool "odd keys survive" true (Jobq.keys q = [ 1; 3; 5 ])

(* ------------------------------------------------------------------ *)
(* Placer *)

let test_placer_compactness () =
  let dims = (4, 4, 4) in
  (match Placer.shapes_for ~dims ~nodes:8 with
  | (2, 2, 2) :: _ -> ()
  | s :: _ ->
    let a, b, c = s in
    Alcotest.fail (Printf.sprintf "8 nodes not cubic first: (%d,%d,%d)" a b c)
  | [] -> Alcotest.fail "no shapes for 8 nodes");
  check_bool "canonical 16 = (2,2,4)" true
    (Placer.canonical_shape ~dims ~nodes:16 = Some (2, 2, 4));
  check_bool "7 nodes cannot fit 4x4x4" true
    (Placer.shapes_for ~dims ~nodes:7 = []);
  check_int "placeable rounds 7 down to 6" 6 (Service.placeable_nodes ~dims 7)

let test_placer_scores_congestion () =
  let cluster = mk_cluster (4, 1, 1) in
  let machine = Cnk.Cluster.machine cluster in
  let torus = machine.Machine.torus in
  let sim = Cnk.Cluster.sim cluster in
  (* soak the links out of ranks 0 and 1 with traffic, leave 2-3 quiet *)
  for _ = 1 to 8 do
    Bg_hw.Torus.transfer torus ~src:0 ~dst:1 ~bytes:65536 ();
    Bg_hw.Torus.transfer torus ~src:1 ~dst:2 ~bytes:65536 ()
  done;
  ignore (Sim.run sim);
  let p = Ctl.Partition.create ~dims:(4, 1, 1) in
  let busy = Placer.congestion_score torus p ~base:(0, 0, 0) ~shape:(2, 1, 1) in
  let quiet = Placer.congestion_score torus p ~base:(2, 0, 0) ~shape:(2, 1, 1) in
  check_bool "traffic raises the score" true (busy > quiet);
  match Placer.place torus p ~nodes:2 ~comm:true with
  | Some { Placer.base = Some (2, 0, 0); _ } -> ()
  | Some { Placer.base; _ } ->
    Alcotest.fail
      (match base with
      | Some (x, y, z) -> Printf.sprintf "comm job placed at (%d,%d,%d)" x y z
      | None -> "comm job got no scored base")
  | None -> Alcotest.fail "nothing placed"

(* Reference test: [Placer.place] (both paths) and [congestion_score]
   against the list-based placer over the list-based partition
   (Ref_partition), on random occupancy, down and spare maps with random
   torus traffic, some of it still in flight. *)

module Ref = Ref_partition

type placer_case = {
  dims : int * int * int;
  setup : ((int * int * int) * (int * int * int) option) list;  (** allocations *)
  marks : (int * [ `Down | `Spare | `Release ]) list;
  traffic : (int * int * int) list;  (** src, dst, bytes *)
  until : int;  (** run the traffic this far, leaving some in flight *)
  queries : (int * bool) list;  (** nodes, comm *)
  scores : ((int * int * int) * (int * int * int)) list;  (** base, shape *)
}

let gen_placer_case =
  let open QCheck.Gen in
  let* dims = triple (int_range 1 4) (int_range 1 4) (int_range 1 4) in
  let dx, dy, dz = dims in
  let n = dx * dy * dz in
  let shape = triple (int_range 1 dx) (int_range 1 dy) (int_range 1 dz) in
  let base = triple (int_range 0 (dx - 1)) (int_range 0 (dy - 1)) (int_range 0 (dz - 1)) in
  let* setup = list_size (int_range 0 6) (pair shape (opt base)) in
  let* marks =
    list_size (int_range 0 8)
      (pair (int_range 0 (n - 1)) (oneofl [ `Down; `Spare; `Release ]))
  in
  let* traffic =
    list_size (int_range 0 24)
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 65536))
  in
  let* until = int_range 0 200_000 in
  let* queries = list_size (int_range 1 8) (pair (int_range 1 (n + 1)) bool) in
  let extent d = int_range (-1) (d + 1) in
  let* scores =
    list_size (int_range 1 6)
      (pair
         (triple (int_range (-1) dx) (int_range (-1) dy) (int_range (-1) dz))
         (triple (extent dx) (extent dy) (extent dz)))
  in
  return { dims; setup; marks; traffic; until; queries; scores }

let arb_placer_case =
  let t3 (a, b, c) = Printf.sprintf "(%d,%d,%d)" a b c in
  QCheck.make gen_placer_case ~print:(fun c ->
      Printf.sprintf "dims %s, %d allocs, %d marks, %d transfers to %d, queries %s" (t3 c.dims)
        (List.length c.setup) (List.length c.marks) (List.length c.traffic) c.until
        (String.concat " "
           (List.map (fun (n, comm) -> Printf.sprintf "%d%s" n (if comm then "c" else "")) c.queries)))

let placer_matches_reference c =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let p = Ctl.Partition.create ~dims:c.dims and m = Ref.Partition.create ~dims:c.dims in
  List.iter
    (fun (shape, base) ->
      ignore (Ctl.Partition.allocate ?base p ~shape);
      ignore (Ref.Partition.allocate ?base m ~shape))
    c.setup;
  List.iter
    (fun (rank, mark) ->
      let both f g = match f () with () -> g () | exception Invalid_argument _ -> () in
      match mark with
      | `Down ->
        both (fun () -> Ctl.Partition.set_down p ~rank true) (fun () ->
            Ref.Partition.set_down m ~rank true)
      | `Spare ->
        both (fun () -> Ctl.Partition.set_spare p ~rank true) (fun () ->
            Ref.Partition.set_spare m ~rank true)
      | `Release -> (
        match Ref.Partition.allocated m with
        | [] -> ()
        | live ->
          let a = List.nth live (rank mod List.length live) in
          Ctl.Partition.release p a.Ref.Partition.id;
          Ref.Partition.release m a.Ref.Partition.id))
    c.marks;
  let sim = Sim.create () in
  let torus = Bg_hw.Torus.create sim ~dims:c.dims () in
  List.iter (fun (src, dst, bytes) -> Bg_hw.Torus.transfer torus ~src ~dst ~bytes ()) c.traffic;
  ignore (Sim.run ~until:c.until sim);
  List.iter
    (fun (nodes, comm) ->
      let got =
        Option.map
          (fun { Placer.shape; base } -> (shape, base))
          (Placer.place torus p ~nodes ~comm)
      in
      if got <> Ref.Placer.place torus m ~nodes ~comm then
        fail "place ~nodes:%d ~comm:%b disagrees with the reference" nodes comm)
    c.queries;
  let score f = match f () with s -> Some s | exception Invalid_argument _ -> None in
  List.iter
    (fun (base, shape) ->
      let got = score (fun () -> Placer.congestion_score torus p ~base ~shape) in
      if got <> score (fun () -> Ref.Placer.congestion_score torus m ~base ~shape) then
        fail "congestion_score disagrees with the reference")
    c.scores;
  true

let prop_placer_reference =
  QCheck.Test.make ~name:"placer agrees with the list-based reference" ~count:1_000
    ~long_factor:10 arb_placer_case placer_matches_reference

let test_congestion_score_rejects_outside_box () =
  let sim = Sim.create () in
  let torus = Bg_hw.Torus.create sim ~dims:(4, 2, 1) () in
  let p = Ctl.Partition.create ~dims:(4, 2, 1) in
  let rejects ~base ~shape =
    match Placer.congestion_score torus p ~base ~shape with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "past the x edge" true (rejects ~base:(3, 0, 0) ~shape:(2, 1, 1));
  check_bool "negative base" true (rejects ~base:(0, -1, 0) ~shape:(1, 1, 1));
  check_bool "negative extent" true (rejects ~base:(0, 0, 0) ~shape:(1, 1, -1));
  check_int "quiet machine, whole box" 0 (Placer.congestion_score torus p ~base:(0, 0, 0) ~shape:(4, 2, 1))

(* ------------------------------------------------------------------ *)
(* Strategy invariants *)

let test_easy_head_reservation () =
  let cluster = mk_cluster ~seed:21L (2, 2, 1) in
  let sim = Cnk.Cluster.sim cluster in
  let sched = Sch.create cluster in
  let strat = Strategy.install Strategy.Easy sched in
  let starts = Hashtbl.create 4 in
  Sch.on_job_start sched (fun jid ~ranks:_ ->
      Hashtbl.replace starts jid (Sim.now sim));
  let j0 =
    Sch.submit_factory sched ~est_cycles:400_000 ~shape:(2, 1, 1)
      (factory ~name:"wide0" ~runtime:300_000)
  in
  Sch.kick sched;
  let j1 =
    Sch.submit_factory sched ~est_cycles:200_000 ~shape:(2, 2, 1)
      (factory ~name:"head" ~runtime:100_000)
  in
  let j2 =
    Sch.submit_factory sched ~est_cycles:100_000 ~shape:(1, 1, 1)
      (factory ~name:"filler" ~runtime:50_000)
  in
  Sch.drain sched;
  check_bool "filler was backfilled" true (Strategy.backfilled strat >= 1);
  let start jid =
    match Hashtbl.find_opt starts jid with
    | Some c -> c
    | None -> Alcotest.fail (Printf.sprintf "job %d never started" jid)
  in
  (match Strategy.reservation strat j1 with
  | None -> Alcotest.fail "blocked head got no reservation"
  | Some shadow ->
    check_bool
      (Printf.sprintf "head started at %d, reserved for %d" (start j1) shadow)
      true
      (start j1 <= shadow));
  check_bool "backfill actually jumped the line" true (start j2 < start j1);
  check_bool "everything completed" true
    (List.for_all
       (fun j -> match Sch.state sched j with Sch.Completed _ -> true | _ -> false)
       [ j0; j1; j2 ])

let test_gang_all_or_none () =
  let cluster = mk_cluster ~seed:22L (2, 2, 1) in
  let sim = Cnk.Cluster.sim cluster in
  let sched = Sch.create cluster in
  let strat = Strategy.install Strategy.Gang sched in
  let starts = Hashtbl.create 4 in
  Sch.on_job_start sched (fun jid ~ranks:_ ->
      Hashtbl.replace starts jid (Sim.now sim));
  let blocker =
    Sch.submit_factory sched ~est_cycles:400_000 ~shape:(2, 1, 1)
      (factory ~name:"blocker" ~runtime:300_000)
  in
  Sch.kick sched;
  let members =
    List.init 3 (fun i ->
        Sch.submit_factory sched ~gang:7 ~est_cycles:100_000 ~shape:(1, 1, 1)
          (factory ~name:(Printf.sprintf "gang%d" i) ~runtime:50_000))
  in
  (* mid-run probe: two nodes are free, but a 3-wide gang must not run
     partially — all or none *)
  ignore
    (Sim.schedule_at sim 150_000 (fun () ->
         List.iter
           (fun j ->
             match Sch.state sched j with
             | Sch.Running _ -> Alcotest.fail "gang member ran without its gang"
             | _ -> ())
           members));
  Sch.drain sched;
  check_int "one gang co-scheduled" 1 (Strategy.gangs_started strat);
  let cycles =
    List.map
      (fun j ->
        match Hashtbl.find_opt starts j with
        | Some c -> c
        | None -> Alcotest.fail "gang member never started")
      members
  in
  (match cycles with
  | c :: rest -> List.iter (fun c' -> check_int "gang starts together" c c') rest
  | [] -> ());
  check_bool "blocker finished first" true
    (match Sch.state sched blocker with Sch.Completed _ -> true | _ -> false)

let test_fair_share_weights () =
  let cluster = mk_cluster ~seed:23L (2, 2, 1) in
  let sim = Cnk.Cluster.sim cluster in
  let sched = Sch.create cluster in
  let config =
    {
      Strategy.comm_of = (fun _ -> false);
      weight_of = (fun tid -> if tid = 0 then 3 else 1);
    }
  in
  ignore (Strategy.install ~config Strategy.Fair sched);
  let done_at = Hashtbl.create 32 in
  Sch.on_job_done sched (fun jid _ -> Hashtbl.replace done_at jid (Sim.now sim));
  let tenant_of = Hashtbl.create 32 in
  (* equal backlogs, interleaved submission: only the weights differ *)
  let submit tenant i =
    let jid =
      Sch.submit_factory sched ~tenant ~est_cycles:150_000 ~shape:(1, 1, 1)
        (factory ~name:(Printf.sprintf "t%d.%d" tenant i) ~runtime:100_000)
    in
    Hashtbl.replace tenant_of jid tenant
  in
  for i = 0 to 15 do
    submit 0 i;
    submit 1 i
  done;
  (* mid-run probe: service delivered so far (completed ledger + live
     progress of running jobs) should lean toward the weight-3 tenant *)
  let probe = ref (0, 0) in
  ignore
    (Sim.schedule_at sim 700_000 (fun () ->
         let live = Hashtbl.create 4 in
         List.iter
           (fun (r : Sch.running_info) ->
             match r.Sch.run_info.Sch.info_tenant with
             | Some tid ->
               let sx, sy, sz = r.Sch.run_info.Sch.info_shape in
               let prev = try Hashtbl.find live tid with Not_found -> 0 in
               Hashtbl.replace live tid
                 (prev + ((Sim.now sim - r.Sch.run_started) * (sx * sy * sz)))
             | None -> ())
           (Sch.running_info sched);
         let total tid =
           Sch.tenant_usage sched tid
           + (try Hashtbl.find live tid with Not_found -> 0)
         in
         probe := (total 0, total 1)));
  Sch.drain sched;
  let heavy, light = !probe in
  check_bool "probe saw service" true (heavy > 0 && light > 0);
  let ratio = float_of_int heavy /. float_of_int light in
  check_bool
    (Printf.sprintf "weight-3 tenant got %.2fx the service (want 2.0-4.5)" ratio)
    true
    (ratio >= 2.0 && ratio <= 4.5);
  (* and the heavier tenant's jobs finish earlier on average *)
  let mean tid =
    let sum, n =
      Hashtbl.fold
        (fun jid t (sum, n) ->
          if Hashtbl.find tenant_of jid = tid then (sum + t, n + 1) else (sum, n))
        done_at (0, 0)
    in
    float_of_int sum /. float_of_int (max n 1)
  in
  check_bool "weighted tenant finishes earlier" true (mean 0 < mean 1)

(* ------------------------------------------------------------------ *)
(* Completion-event idempotence under a full queue *)

let test_duplicate_completions_idempotent () =
  let cluster = mk_cluster ~seed:24L (2, 1, 1) in
  let sched = Sch.create cluster in
  let j0 =
    Sch.submit_factory sched ~shape:(2, 1, 1) (factory ~name:"live" ~runtime:50_000)
  in
  Sch.kick sched;
  (* wedge the queue shut so releases cannot relaunch onto the nodes *)
  Sch.set_shape_cap sched (Some (1, 1, 1));
  let queued =
    List.init 3 (fun i ->
        Sch.submit_factory sched ~shape:(2, 1, 1)
          (factory ~name:(Printf.sprintf "q%d" i) ~runtime:10_000))
  in
  check_int "queue is full" 3 (Sch.pending_count sched);
  (* first report from rank 0: job keeps running on rank 1 *)
  Sch.member_completed sched j0 ~rank:0;
  check_bool "half-reported job still running" true
    (match Sch.state sched j0 with Sch.Running _ -> true | _ -> false);
  (* control-network replay of the same event: dropped, counted *)
  Sch.member_completed sched j0 ~rank:0;
  check_int "replay counted" 1 (Sch.duplicate_completions sched);
  check_bool "replay did not complete the job" true
    (match Sch.state sched j0 with Sch.Running _ -> true | _ -> false);
  Sch.member_completed sched j0 ~rank:1;
  check_bool "all ranks reported: completed" true
    (match Sch.state sched j0 with Sch.Completed _ -> true | _ -> false);
  check_int "partition released once" 2
    (Ctl.Partition.free_nodes (Sch.partition sched));
  (* replay after the job is gone: dropped too *)
  Sch.member_completed sched j0 ~rank:1;
  check_int "late replay counted" 2 (Sch.duplicate_completions sched);
  check_int "queue untouched" 3 (Sch.pending_count sched);
  List.iter
    (fun j ->
      check_bool "queued job still queued" true
        (match Sch.state sched j with Sch.Queued -> true | _ -> false))
    queued

(* ------------------------------------------------------------------ *)
(* Scan-cost guard *)

(* The indexed queue keeps the kick path linear: draining [n] jobs
   through a 1-node machine must visit O(n) queue nodes in total, not
   O(n^2) as a scan-the-whole-queue-per-kick implementation would. *)
let test_scan_visits_stay_linear () =
  let cluster = mk_cluster ~seed:25L (1, 1, 1) in
  let sched = Sch.create cluster in
  let n = 300 in
  for i = 0 to n - 1 do
    ignore
      (Sch.submit_factory sched ~shape:(1, 1, 1)
         (factory ~name:(Printf.sprintf "s%d" i) ~runtime:2_000))
  done;
  Sch.drain sched;
  check_int "all drained" 0 (Sch.outstanding sched);
  let visits = Sch.scan_visits sched in
  check_bool
    (Printf.sprintf "scan visits %d for %d jobs (quadratic would be ~%d)" visits n
       (n * n / 2))
    true
    (visits <= 4 * n)

(* ------------------------------------------------------------------ *)
(* Service end to end *)

let test_service_deterministic_slo () =
  let run () =
    let cluster = mk_cluster ~seed:26L (2, 2, 1) in
    let obs = Machine.obs (Cnk.Cluster.machine cluster) in
    Bg_obs.Obs.set_enabled obs true;
    let specs =
      Workload.generate ~seed:26L
        (Workload.mixed_tenants ~tenants:4 ~jobs_per_tenant:3)
    in
    let svc = Service.create ~kind:Strategy.Fcfs cluster specs in
    Service.run svc;
    let slo =
      Slo.collect obs
        ~tenants:(Service.tenants_of specs)
        ~policy:"fcfs" ~seed:26 ~total_nodes:4 ~makespan:(Service.makespan svc) ()
    in
    (slo, Service.offered svc)
  in
  let slo_a, offered_a = run () in
  let slo_b, _ = run () in
  check_int "all arrivals offered" 12 offered_a;
  check_int "every job billed" 12
    (slo_a.Slo.completed_total + slo_a.Slo.failed_total);
  check_bool "same seed, same bill" true
    (Bg_engine.Fnv.equal (Slo.digest slo_a) (Slo.digest slo_b))

let suite =
  [
    ("workload: same seed, same stream", `Quick, test_workload_deterministic);
    ("workload: tenant substreams isolated", `Quick, test_workload_tenant_isolation);
    ("workload: gang bursts share arrival", `Quick, test_workload_gang_bursts);
    ("jobq: order and O(1) removal", `Quick, test_jobq_order_and_removal);
    ("jobq: iteration survives removal", `Quick, test_jobq_iter_safe_against_removal);
    ("placer: compact shapes first", `Quick, test_placer_compactness);
    ("placer: congestion steers placement", `Quick, test_placer_scores_congestion);
    ("placer: congestion_score rejects a box outside the machine", `Quick,
      test_congestion_score_rejects_outside_box);
    ("easy: head reservation never delayed", `Quick, test_easy_head_reservation);
    ("gang: all-or-none co-scheduling", `Quick, test_gang_all_or_none);
    ("fair: weighted shares within tolerance", `Quick, test_fair_share_weights);
    ( "scheduler: duplicate completions idempotent",
      `Quick,
      test_duplicate_completions_idempotent );
    ("scheduler: scan visits stay linear", `Quick, test_scan_visits_stay_linear);
    ("service: same-seed SLO bill reproduces", `Quick, test_service_deterministic_slo);
    QCheck_alcotest.to_alcotest prop_placer_reference;
  ]
