(* Tests for the Linux-like FWK baseline: buddy allocator, noise model,
   preemptive noisy scheduling, demand paging, enforced mprotect, local
   VFS, and the "same runtime binary runs on both kernels" property. *)

open Bg_engine
open Bg_kabi
module Rt = Bg_rt
module Fwk = Bg_fwk
module Noise = Bg_noise

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mb = 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Buddy *)

let test_buddy_alloc_free () =
  let b = Fwk.Buddy.create ~bytes:(16 * mb) in
  check_int "all free" (16 * mb) (Fwk.Buddy.free_bytes b);
  let a = Result.get_ok (Fwk.Buddy.alloc b ~order:12) in
  check_int "aligned" 0 (a mod 4096);
  check_int "free shrank" ((16 * mb) - 4096) (Fwk.Buddy.free_bytes b);
  Fwk.Buddy.free b ~addr:a ~order:12;
  check_int "all free again" (16 * mb) (Fwk.Buddy.free_bytes b);
  (* after full coalescing a 16MB block is available again *)
  Alcotest.(check (option int)) "coalesced" (Some 24) (Fwk.Buddy.largest_free_order b)

let test_buddy_split_and_coalesce () =
  let b = Fwk.Buddy.create ~bytes:(1 lsl 20) in
  let blocks = List.init 256 (fun _ -> Result.get_ok (Fwk.Buddy.alloc b ~order:12)) in
  check_int "exhausted" 0 (Fwk.Buddy.free_bytes b);
  (match Fwk.Buddy.alloc b ~order:12 with
  | Error Errno.ENOMEM -> ()
  | _ -> Alcotest.fail "expected ENOMEM");
  List.iter (fun addr -> Fwk.Buddy.free b ~addr ~order:12) blocks;
  Alcotest.(check (option int)) "full coalesce" (Some 20) (Fwk.Buddy.largest_free_order b)

let test_buddy_fragmentation_metric () =
  let b = Fwk.Buddy.create ~bytes:(1 lsl 20) in
  Alcotest.(check (float 0.001)) "unfragmented" 0.0 (Fwk.Buddy.fragmentation b);
  (* allocate everything as 4K, free every other block: max fragmentation *)
  let blocks = List.init 256 (fun _ -> Result.get_ok (Fwk.Buddy.alloc b ~order:12)) in
  List.iteri (fun i addr -> if i mod 2 = 0 then Fwk.Buddy.free b ~addr ~order:12) blocks;
  check_bool "fragmented" true (Fwk.Buddy.fragmentation b > 0.9);
  Alcotest.(check (option int)) "only 4K available" (Some 12) (Fwk.Buddy.largest_free_order b)

let test_buddy_double_free_detected () =
  let b = Fwk.Buddy.create ~bytes:(1 lsl 20) in
  let a = Result.get_ok (Fwk.Buddy.alloc b ~order:12) in
  Fwk.Buddy.free b ~addr:a ~order:12;
  Alcotest.(check bool) "double free raises" true
    (try
       Fwk.Buddy.free b ~addr:a ~order:12;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Noise model *)

let test_noise_quiet_is_ticks_only () =
  let n =
    Fwk.Noise_model.create ~daemons:[] ~rng:(Rng.create 1L) ()
  in
  (* one 100k-cycle quantum starting at 0 crosses no tick (first at 850k) *)
  check_int "no interference" 100_000 (Fwk.Noise_model.advance n ~start:0 ~work:100_000);
  (* a quantum crossing the tick pays the handler *)
  let finish = Fwk.Noise_model.advance n ~start:800_000 ~work:100_000 in
  check_bool "tick charged" true (finish > 900_000);
  check_bool "stolen recorded" true (Fwk.Noise_model.stolen_cycles n > 0)

let test_noise_heavy_core_noisier () =
  (* The paper's per-core contrast is in the worst-case quantum (Figs 5-7),
     not the mean: cores 0/2/3 show rare large excursions, core 1 only the
     tick + rcu floor. *)
  let worst daemons =
    let n = Fwk.Noise_model.create ~daemons ~rng:(Rng.create 7L) () in
    let worst = ref 0 in
    let t = ref 0 in
    for _ = 1 to 2000 do
      let fin = Fwk.Noise_model.advance n ~start:!t ~work:658_958 in
      worst := max !worst (fin - !t - 658_958);
      t := fin
    done;
    !worst
  in
  let heavy = worst (Fwk.Noise_model.suse_daemon_set ~core:0) in
  let light = worst (Fwk.Noise_model.suse_daemon_set ~core:1) in
  check_bool "core0 worst-case above core1's" true (heavy > 2 * light)

let test_noise_deterministic () =
  let run () =
    let n =
      Fwk.Noise_model.create ~daemons:(Fwk.Noise_model.suse_daemon_set ~core:0)
        ~rng:(Rng.create 5L) ()
    in
    List.init 100 (fun i -> Fwk.Noise_model.advance n ~start:(i * 1_000_000) ~work:658_958)
  in
  Alcotest.(check (list int)) "same seed same timeline" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* FWK node end-to-end *)

let run_on_fwk ?noise_seed f =
  let cluster = Fwk.Cluster.create ?noise_seed ~dims:(1, 1, 1) () in
  Fwk.Cluster.boot_all cluster;
  Fwk.Cluster.run_job cluster (Job.create ~name:"t" (Image.executable ~name:"t" f));
  Fwk.Cluster.node cluster 0

let test_fwk_runs_same_runtime () =
  (* The very same Bg_rt runtime used on CNK: malloc, pthreads, mutex. *)
  let total = ref (-1) and sysname = ref "" in
  let node =
    run_on_fwk (fun () ->
        sysname := (Rt.Libc.uname ()).Sysreq.sysname;
        let m = Rt.Pthread.Mutex.create () in
        let counter = Rt.Malloc.malloc 8 in
        Rt.Libc.poke counter 0;
        let bump () =
          for _ = 1 to 20 do
            Rt.Pthread.Mutex.lock m;
            Rt.Libc.poke counter (Rt.Libc.peek counter + 1);
            Rt.Pthread.Mutex.unlock m
          done
        in
        let ws = List.init 3 (fun _ -> Rt.Pthread.create bump) in
        bump ();
        List.iter Rt.Pthread.join ws;
        total := Rt.Libc.peek counter)
  in
  Alcotest.(check string) "it's Linux" "Linux" !sysname;
  check_int "mutex works on fwk" 80 !total;
  Alcotest.(check (list (pair int string))) "no faults" [] (Fwk.Node.faults node)

let test_fwk_demand_paging_counts () =
  let node =
    run_on_fwk (fun () ->
        let a = Rt.Malloc.malloc (256 * 4096) in
        (* touch 256 distinct pages *)
        for i = 0 to 255 do
          Rt.Libc.poke (a + (i * 4096)) i
        done)
  in
  check_bool "minor faults taken" true (Fwk.Node.minor_faults node >= 256)

let test_fwk_tlb_pressure_evicts () =
  let node =
    run_on_fwk (fun () ->
        let pages = 256 in
        let a = Rt.Malloc.malloc (pages * 4096) in
        (* two sweeps over 256 pages with a 64-entry TLB: second sweep
           still misses (capacity), so refills/evictions accumulate *)
        for _ = 1 to 2 do
          for i = 0 to pages - 1 do
            Rt.Libc.poke (a + (i * 4096)) i
          done
        done)
  in
  check_bool "TLB evictions under 4K paging" true (Fwk.Node.tlb_refills node > 256)

let test_fwk_noise_varies_identical_work () =
  let samples = ref [] in
  let _node =
    run_on_fwk (fun () ->
        for _ = 1 to 200 do
          let t0 = Coro.rdtsc () in
          Coro.consume 658_958;
          let t1 = Coro.rdtsc () in
          samples := (t1 - t0) :: !samples
        done)
  in
  let arr = Array.of_list (List.map float_of_int !samples) in
  let s = Stats.summarize arr in
  check_bool "noise spread over 1%" true (Stats.spread_percent s > 1.0)

let test_fwk_preemption_interleaves () =
  (* two CPU-bound threads forced onto one core: the 10 ms time slice must
     interleave them (completions close together), not run them serially *)
  let done_at = Array.make 2 0 in
  let _node =
    run_on_fwk (fun () ->
        (* saturate cores 1..3 so the competitor lands on core 0 *)
        let parked =
          List.init 3 (fun _ -> Rt.Pthread.create (fun () -> Coro.consume 80_000_000))
        in
        let other =
          Rt.Pthread.create (fun () ->
              Coro.consume 30_000_000;
              done_at.(1) <- Coro.rdtsc ())
        in
        Coro.consume 30_000_000;
        done_at.(0) <- Coro.rdtsc ();
        Rt.Pthread.join other;
        List.iter Rt.Pthread.join parked)
  in
  let a = done_at.(0) and b = done_at.(1) in
  check_bool "both ran" true (a > 0 && b > 0);
  (* serial execution would separate completions by ~30M cycles; slicing
     keeps them within ~1.5 slices of each other *)
  check_bool "interleaved by the time slice" true (abs (a - b) < 15_000_000)

let test_fwk_same_seed_identical_noise () =
  let run () =
    let r = Noise.Fwq_harness.run_on_fwk ~samples:400 ~noise_seed:33L () in
    List.map
      (fun t -> Array.to_list t.Noise.Fwq_harness.samples)
      r.Noise.Fwq_harness.threads
  in
  Alcotest.(check (list (list int))) "deterministic given its seed" (run ()) (run ())

let test_fwk_overcommit_allowed () =
  (* 20 threads on 4 cores: Linux timeshares them happily (Table II). *)
  let finished = ref 0 in
  let node =
    run_on_fwk (fun () ->
        let done_ctr = Rt.Malloc.malloc 8 in
        Rt.Libc.poke done_ctr 0;
        let ws =
          List.init 20 (fun _ ->
              Rt.Pthread.create (fun () ->
                  Coro.consume 100_000;
                  ignore (Coro.fetch_add ~addr:done_ctr 1)))
        in
        List.iter Rt.Pthread.join ws;
        finished := Rt.Libc.peek done_ctr)
  in
  check_int "all 20 ran" 20 !finished;
  Alcotest.(check (list (pair int string))) "no faults" [] (Fwk.Node.faults node)

let test_fwk_mprotect_enforced () =
  (* Unlike CNK, Linux honors page protection (Table II). *)
  let node =
    run_on_fwk (fun () ->
        let a = Rt.Libc.mmap_anon ~length:4096 in
        Rt.Libc.poke a 1;
        (* our fwk mprotect takes effect per page *)
        Sysreq.expect_unit
          (Coro.syscall
             (Sysreq.Mprotect { addr = a; length = 4096; prot = Bg_hw.Tlb.perm_ro }));
        Rt.Libc.poke a 2 (* must fault *))
  in
  match Fwk.Node.faults node with
  | [ (_, _) ] -> ()
  | l -> Alcotest.failf "expected 1 fault, got %d" (List.length l)

let test_fwk_no_vtop () =
  let errno = ref "" in
  let _node =
    run_on_fwk (fun () ->
        try ignore (Rt.Libc.virtual_to_physical 0)
        with Sysreq.Syscall_error e -> errno := Errno.to_string e)
  in
  Alcotest.(check string) "v->p not available on Linux" "ENOSYS" !errno

let test_fwk_local_io () =
  let back = ref "" in
  let node =
    run_on_fwk (fun () ->
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "local.txt" in
        ignore (Rt.Libc.write_string fd "fwk data");
        ignore (Rt.Libc.lseek fd ~offset:0 ~whence:Sysreq.Seek_set);
        back := Bytes.to_string (Rt.Libc.read fd ~len:100);
        Rt.Libc.close fd)
  in
  Alcotest.(check string) "local vfs roundtrip" "fwk data" !back;
  let inode = Result.get_ok (Bg_cio.Fs.resolve (Fwk.Node.fs node) ~cwd:"/" "/local.txt") in
  check_int "file size" 8 (Bg_cio.Fs.stat (Fwk.Node.fs node) inode).Sysreq.st_size

let test_fwk_file_mmap_demand_paged () =
  let contents = ref "" in
  let node =
    run_on_fwk (fun () ->
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "lib.so" in
        ignore (Rt.Libc.write fd (Bytes.make 16_384 'L'));
        let addr = Rt.Libc.mmap_file ~fd ~length:16_384 ~offset:0 in
        Rt.Libc.close fd;
        (* touch page 0 and page 3: two major faults, correct contents *)
        contents := Bytes.to_string (Coro.load ~addr ~len:4);
        ignore (Coro.load ~addr:(addr + (3 * 4096)) ~len:4))
  in
  Alcotest.(check string) "page content read at fault" "LLLL" !contents;
  check_int "exactly the touched pages faulted" 2 (Fwk.Node.major_faults node)

let test_fwk_dynlink_noise_at_runtime () =
  (* SSIV.B.2 ablation: on a paging kernel, touching a freshly mapped
     library mid-computation dents the timing; CNK pays it all at load *)
  let spread = ref 0.0 in
  let _node =
    run_on_fwk (fun () ->
        let fd = Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "big.so" in
        ignore (Rt.Libc.write fd (Bytes.make (64 * 4096) 'x'));
        let addr = Rt.Libc.mmap_file ~fd ~length:(64 * 4096) ~offset:0 in
        Rt.Libc.close fd;
        let samples = Array.make 64 0.0 in
        for i = 0 to 63 do
          let t0 = Coro.rdtsc () in
          Coro.consume 10_000;
          (* every 8th quantum touches a new page of the library *)
          if i mod 8 = 0 then ignore (Coro.load ~addr:(addr + (i * 4096)) ~len:8);
          samples.(i) <- float_of_int (Coro.rdtsc () - t0)
        done;
        spread := Bg_engine.Stats.spread_percent (Bg_engine.Stats.summarize samples))
  in
  check_bool "page-in dents the loop" true (!spread > 50.0)

let test_fwk_page_cache_reclaim () =
  (* a tiny-memory node: anonymous pressure evicts clean file pages, the
     program survives, and re-touching a discarded page re-reads it *)
  let params = { Bg_hw.Params.bgp with Bg_hw.Params.dram_bytes = 8 * 1024 * 1024 } in
  let machine = Machine.create ~params ~dims:(1, 1, 1) () in
  let node = Fwk.Node.create ~noise_seed:1L machine ~rank:0 ~stripped:true () in
  let survived = ref false and reread = ref "" in
  Fwk.Node.boot node ~on_ready:(fun () ->
      match
        Fwk.Node.launch node
          (Job.create ~name:"p"
             (Image.executable ~name:"p" (fun () ->
                  let file_bytes = 4 * 1024 * 1024 in
                  let fd =
                    Rt.Libc.openf ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true } "data"
                  in
                  ignore (Rt.Libc.write fd (Bytes.make file_bytes 'F'));
                  let maddr = Rt.Libc.mmap_file ~fd ~length:file_bytes ~offset:0 in
                  Rt.Libc.close fd;
                  (* make the file resident *)
                  for pg = 0 to (file_bytes / 4096) - 1 do
                    ignore (Coro.load ~addr:(maddr + (pg * 4096)) ~len:1)
                  done;
                  (* anonymous pressure: ~4.6 MB of touched heap *)
                  let a = Rt.Libc.mmap_anon ~length:(4_600 * 1024) in
                  for pg = 0 to (4_600 * 1024 / 4096) - 1 do
                    Rt.Libc.poke (a + (pg * 4096)) pg
                  done;
                  (* a discarded file page comes back with its contents *)
                  reread := Bytes.to_string (Coro.load ~addr:maddr ~len:4);
                  survived := true)))
      with
      | Ok () -> ()
      | Error e -> failwith e);
  ignore (Sim.run machine.Machine.sim);
  Alcotest.(check (list (pair int string))) "no faults" [] (Fwk.Node.faults node);
  check_bool "survived pressure" true !survived;
  check_bool "pages were reclaimed" true (Fwk.Node.reclaims node > 0);
  Alcotest.(check string) "content re-read after reclaim" "FFFF" !reread

let test_fwk_boot_slower_than_cnk () =
  check_bool "full Linux boot ~250x CNK" true
    (Fwk.Node.boot_cycles_full > 200 * Cnk.Node.boot_cycles);
  check_bool "stripped still ~35x" true
    (Fwk.Node.boot_cycles_stripped > 30 * Cnk.Node.boot_cycles)

let test_fwk_contiguous_degrades_with_churn () =
  let machine = Machine.create ~dims:(1, 1, 1) () in
  let node = Fwk.Node.create machine ~rank:0 () in
  check_bool "fresh: 256MB contiguous fine" true
    (Fwk.Node.try_alloc_contiguous node ~bytes:(256 * mb));
  Fwk.Node.churn node ~allocations:30_000 ~seed:99L;
  check_bool "after churn: 1GB contiguous fails" false
    (Fwk.Node.try_alloc_contiguous node ~bytes:(1024 * mb))

let test_fwk_not_reproducible_across_environments () =
  (* Same program, different noise seeds (= different uncontrolled daemon
     phases): completion cycles differ. CNK's equivalent test shows exact
     equality. *)
  let run seed =
    let machine = Machine.create ~dims:(1, 1, 1) () in
    let node = Fwk.Node.create ~noise_seed:seed machine ~rank:0 ~stripped:true () in
    let finish = ref 0 in
    Fwk.Node.boot node ~on_ready:(fun () ->
        Fwk.Node.on_job_complete node (fun () -> finish := Sim.now machine.Machine.sim);
        match
          Fwk.Node.launch node
            (Job.create ~name:"r"
               (Image.executable ~name:"r" (fun () -> Coro.consume 50_000_000)))
        with
        | Ok () -> ()
        | Error e -> failwith e);
    ignore (Sim.run machine.Machine.sim);
    !finish
  in
  check_bool "timing differs across environments" true (run 1L <> run 2L)

(* ------------------------------------------------------------------ *)
(* FWK cluster harness *)

let test_cluster_one_node_per_rank () =
  let cluster = Fwk.Cluster.create ~noise_seed:1L ~dims:(2, 2, 1) () in
  Fwk.Cluster.boot_all cluster;
  let seen = ref [] in
  Fwk.Cluster.run_job cluster
    (Job.create ~name:"r"
       (Image.executable ~name:"r" (fun () ->
            let r = Rt.Libc.rank () in
            seen := r :: !seen)));
  Alcotest.(check (list int)) "every rank ran exactly once" [ 0; 1; 2; 3 ] (List.sort compare !seen)

let test_cluster_run_job_fails_on_blocked_rank () =
  let cluster = Fwk.Cluster.create ~noise_seed:1L ~dims:(2, 1, 1) () in
  Fwk.Cluster.boot_all cluster;
  let job =
    Job.create ~name:"b"
      (Image.executable ~name:"b" (fun () ->
           if Rt.Libc.rank () = 1 then begin
             (* wait on a futex nobody will ever wake *)
             let word = Rt.Malloc.malloc 8 in
             Rt.Libc.poke word 0;
             ignore (Coro.syscall (Sysreq.Futex_wait { addr = word; expected = 0 }))
           end))
  in
  Alcotest.check_raises "drains with rank 1 unfinished"
    (Failure "Cluster.run_job: sim drained with 1 node(s) unfinished") (fun () ->
      Fwk.Cluster.run_job cluster job)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "buddy: alloc/free" `Quick test_buddy_alloc_free;
    Alcotest.test_case "buddy: split/coalesce" `Quick test_buddy_split_and_coalesce;
    Alcotest.test_case "buddy: fragmentation" `Quick test_buddy_fragmentation_metric;
    Alcotest.test_case "buddy: double free" `Quick test_buddy_double_free_detected;
    Alcotest.test_case "noise: quiet ticks" `Quick test_noise_quiet_is_ticks_only;
    Alcotest.test_case "noise: heavy vs light core" `Quick test_noise_heavy_core_noisier;
    Alcotest.test_case "noise: deterministic" `Quick test_noise_deterministic;
    Alcotest.test_case "fwk: same runtime as cnk" `Quick test_fwk_runs_same_runtime;
    Alcotest.test_case "fwk: demand paging" `Quick test_fwk_demand_paging_counts;
    Alcotest.test_case "fwk: tlb pressure" `Quick test_fwk_tlb_pressure_evicts;
    Alcotest.test_case "fwk: noise on fixed work" `Quick test_fwk_noise_varies_identical_work;
    Alcotest.test_case "fwk: preemption interleaves" `Quick test_fwk_preemption_interleaves;
    Alcotest.test_case "fwk: seeded determinism" `Quick test_fwk_same_seed_identical_noise;
    Alcotest.test_case "fwk: overcommit ok" `Quick test_fwk_overcommit_allowed;
    Alcotest.test_case "fwk: mprotect enforced" `Quick test_fwk_mprotect_enforced;
    Alcotest.test_case "fwk: no vtop" `Quick test_fwk_no_vtop;
    Alcotest.test_case "fwk: local io" `Quick test_fwk_local_io;
    Alcotest.test_case "fwk: file mmap demand paged" `Quick test_fwk_file_mmap_demand_paged;
    Alcotest.test_case "fwk: dynlink noise at runtime" `Quick test_fwk_dynlink_noise_at_runtime;
    Alcotest.test_case "fwk: page-cache reclaim" `Quick test_fwk_page_cache_reclaim;
    Alcotest.test_case "fwk: boot cost ratios" `Quick test_fwk_boot_slower_than_cnk;
    Alcotest.test_case "fwk: buddy churn vs contiguous" `Quick
      test_fwk_contiguous_degrades_with_churn;
    Alcotest.test_case "fwk: not reproducible" `Quick test_fwk_not_reproducible_across_environments;
    Alcotest.test_case "fwk cluster: one node per rank" `Quick test_cluster_one_node_per_rank;
    Alcotest.test_case "fwk cluster: blocked rank fails run_job" `Quick
      test_cluster_run_job_fails_on_blocked_rank;
  ]
