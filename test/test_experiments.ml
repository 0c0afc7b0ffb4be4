(* Experiment-level tests: the FWQ noise contrast (Figs 5-7), noise
   injection and scaling (Petrini effect), stability statistics (§V.D),
   bringup tooling (scans, waveforms, multichip alignment, the timing-bug
   hunt, VHDL boot economics) and the capability tables (II & III). *)

open Bg_engine
open Bg_kabi
module Noise = Bg_noise
module Bringup = Bg_bringup
module Caps = Bg_caps

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* FWQ: Figs 5-7 *)

let test_fwq_cnk_quiet () =
  let r = Noise.Fwq_harness.run_on_cnk ~samples:1000 () in
  check_int "four threads" 4 (List.length r.Noise.Fwq_harness.threads);
  List.iter
    (fun t ->
      check_bool "every sample at least the quantum" true
        (t.Noise.Fwq_harness.min_cycles >= Bg_apps.Daxpy.quantum_cycles);
      check_bool "CNK spread under 0.01%" true (t.Noise.Fwq_harness.spread_percent < 0.01))
    r.Noise.Fwq_harness.threads

let test_fwq_fwk_noisy_with_per_core_contrast () =
  let r = Noise.Fwq_harness.run_on_fwk ~samples:3000 ~noise_seed:11L () in
  let spread i =
    (List.nth r.Noise.Fwq_harness.threads i).Noise.Fwq_harness.spread_percent
  in
  (* threads spawn 0..3; thread 0 is the main on core 0; others land on
     least-loaded cores 1..3 in order *)
  check_bool "a heavy core exceeds 3%" true
    (spread 0 > 3.0 || spread 2 > 3.0 || spread 3 > 3.0);
  check_bool "all cores noisier than CNK" true
    (List.for_all (fun t -> t.Noise.Fwq_harness.spread_percent > 0.3)
       r.Noise.Fwq_harness.threads)

let test_fwq_cnk_vs_fwk_factor () =
  let cnk = Noise.Fwq_harness.run_on_cnk ~samples:800 () in
  let fwk = Noise.Fwq_harness.run_on_fwk ~samples:800 ~noise_seed:3L () in
  let c = Noise.Fwq_harness.max_spread cnk in
  let f = Noise.Fwq_harness.max_spread fwk in
  check_bool "orders of magnitude apart" true (f > 100.0 *. c)

let test_fwq_histogram () =
  let r = Noise.Fwq_harness.run_on_cnk ~samples:500 () in
  let t = List.hd r.Noise.Fwq_harness.threads in
  let h = Noise.Fwq_harness.histogram t ~bins:10 in
  check_int "ten bins" 10 (List.length h);
  check_int "all samples counted" 500 (List.fold_left (fun a (_, c) -> a + c) 0 h)

(* ------------------------------------------------------------------ *)
(* Noise characterization: inferred signature matches the configuration *)

let test_analysis_recovers_injected_signature () =
  (* inject a known profile into quiet CNK and recover its parameters *)
  let period = 2_000_000 and duration = 30_000 in
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  Noise.Injection.attach (Cnk.Cluster.node cluster 0)
    ~profile:{ Noise.Injection.period_cycles = period; duration_cycles = duration; jitter = 0.1 }
    ~seed:8L
    ~until:(Sim.now (Cnk.Cluster.sim cluster) + 6_000_000_000);
  let entry, collect = Bg_apps.Fwq.program ~samples:3000 ~threads:1 () in
  Cnk.Cluster.run_job cluster
    (Bg_kabi.Job.create ~name:"sig" (Bg_kabi.Image.executable ~name:"sig" entry));
  let samples = List.assoc 0 (collect ()).Bg_apps.Fwq.thread_samples in
  let s = Noise.Analysis.characterize samples in
  (* configured: one ~30k-cycle event every ~2M cycles = 1.5% cpu, ~425/s *)
  check_bool "event magnitude recovered" true
    (Float.abs (s.Noise.Analysis.mean_stolen -. float_of_int duration)
    < 0.2 *. float_of_int duration);
  let expected_rate = Bg_engine.Cycles.frequency_hz /. float_of_int period in
  check_bool "strike rate recovered" true
    (Float.abs (s.Noise.Analysis.events_per_second -. expected_rate)
    < 0.25 *. expected_rate);
  check_bool "cpu share recovered" true
    (Float.abs (s.Noise.Analysis.cpu_fraction -. 0.015) < 0.006)

let test_analysis_quiet_kernel_is_eventless () =
  let r = Noise.Fwq_harness.run_on_cnk ~samples:500 () in
  let t = List.hd r.Noise.Fwq_harness.threads in
  let s = Noise.Analysis.characterize t.Noise.Fwq_harness.samples in
  check_int "no events above threshold" 0 s.Noise.Analysis.event_count

let test_analysis_classifies_linux_noise () =
  let r = Noise.Fwq_harness.run_on_fwk ~samples:5000 ~noise_seed:21L () in
  let t = List.hd r.Noise.Fwq_harness.threads in
  let s = Noise.Analysis.characterize t.Noise.Fwq_harness.samples in
  check_bool "many events" true (s.Noise.Analysis.event_count > 100);
  (* the tick population (small) dominates counts; daemon-class events
     (kswapd ~22k, pdflush ~14k) appear as a heavy tail *)
  let classes = Noise.Analysis.classify s ~bins:8 in
  check_bool "multiple magnitude classes" true (List.length classes >= 2);
  (match classes with
  | (_, _, c0) :: rest ->
    check_bool "smallest class dominates" true
      (List.for_all (fun (_, _, c) -> c <= c0) rest)
  | [] -> Alcotest.fail "no classes")

(* ------------------------------------------------------------------ *)
(* Injection + scaling *)

let test_injection_raises_fwq_spread () =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let profile =
    { Noise.Injection.period_cycles = 500_000; duration_cycles = 25_000; jitter = 0.3 }
  in
  Noise.Injection.attach (Cnk.Cluster.node cluster 0) ~profile ~seed:5L
    ~until:(Sim.now (Cnk.Cluster.sim cluster) + 3_000_000_000);
  let entry, collect = Bg_apps.Fwq.program ~samples:800 ~threads:4 () in
  Cnk.Cluster.run_job cluster
    (Bg_kabi.Job.create ~name:"fwq" (Bg_kabi.Image.executable ~name:"fwq" entry));
  let r = collect () in
  let spread = Bg_apps.Fwq.max_spread_percent r in
  check_bool "injected noise visible" true (spread > 2.0)

let test_scaling_magnification () =
  let slow nodes =
    Noise.Scaling.allreduce_slowdown ~nodes ~iterations:300 ~work_cycles:850_000
      ~profile:Noise.Scaling.Linux_daemons ~seed:7L
  in
  let s1 = slow 1 in
  let s64 = slow 64 in
  let s4096 = slow 4096 in
  check_bool "noise magnifies with scale" true (s1 < s64 && s64 < s4096);
  check_bool "4096 nodes suffer >2% slowdown" true (s4096 > 1.02);
  let quiet =
    Noise.Scaling.allreduce_slowdown ~nodes:4096 ~iterations:300 ~work_cycles:850_000
      ~profile:Noise.Scaling.Quiet ~seed:7L
  in
  check_bool "quiet kernel immune at scale" true (quiet < 1.005)

let test_scaling_synchronized_daemons () =
  (* SSV.A technique 1: coordinated delays do not compound with scale *)
  let f profile nodes =
    Noise.Scaling.allreduce_slowdown ~nodes ~iterations:300 ~work_cycles:850_000
      ~profile ~seed:7L
  in
  let sync1 = f Noise.Scaling.Linux_synchronized 1 in
  let sync4096 = f Noise.Scaling.Linux_synchronized 4096 in
  let unsync4096 = f Noise.Scaling.Linux_daemons 4096 in
  check_bool "synchronized noise does not magnify" true
    (Float.abs (sync4096 -. sync1) < 0.003);
  check_bool "far below unsynchronized at scale" true (sync4096 < unsync4096 -. 0.02)

let test_scaling_injected_profile () =
  let p =
    { Noise.Injection.period_cycles = 850_000; duration_cycles = 8_500; jitter = 0.5 }
  in
  let s =
    Noise.Scaling.allreduce_slowdown ~nodes:1024 ~iterations:200 ~work_cycles:850_000
      ~profile:(Noise.Scaling.Injected p) ~seed:9L
  in
  (* 1% local noise -> several percent at 1024-node scale *)
  check_bool "injection magnified" true (s > 1.01)

let test_stability_stddev_contrast () =
  let quiet =
    Noise.Scaling.allreduce_stddev_us ~nodes:16 ~iterations:2000 ~work_cycles:20_000
      ~profile:Noise.Scaling.Quiet ~seed:3L
  in
  let linux =
    Noise.Scaling.allreduce_stddev_us ~nodes:4 ~iterations:2000 ~work_cycles:20_000
      ~profile:Noise.Scaling.Linux_daemons ~seed:3L
  in
  check_bool "CNK-style stddev effectively 0" true (quiet < 0.05);
  check_bool "Linux-style stddev in microseconds" true (linux > 1.0)

let test_linpack_spread_contrast () =
  let cnk_spread, _ =
    Noise.Scaling.linpack_spread_percent ~nodes:32 ~runs:12 ~panels:400
      ~panel_cycles:850_000 ~profile:Noise.Scaling.Quiet ~seed:5L
  in
  let linux_spread, _ =
    Noise.Scaling.linpack_spread_percent ~nodes:32 ~runs:12 ~panels:400
      ~panel_cycles:850_000 ~profile:Noise.Scaling.Linux_daemons ~seed:5L
  in
  check_bool "CNK spread ~0.01%-scale" true (cnk_spread < 0.05);
  check_bool "Linux spread much larger" true (linux_spread > 10.0 *. Float.max cnk_spread 0.001)

(* ------------------------------------------------------------------ *)
(* Bringup *)

let bringup_run ?(seed = 1L) () =
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) ~seed () in
  Cnk.Cluster.boot_all cluster;
  let image =
    Bg_kabi.Image.executable ~name:"scan-target" (fun () ->
        for _ = 1 to 50 do
          Coro.consume 5_000;
          ignore (Bg_rt.Libc.gettid ())
        done)
  in
  Cnk.Cluster.launch_all cluster ~ranks:[ 0 ] (Bg_kabi.Job.create ~name:"st" image);
  cluster

let test_scan_is_reproducible () =
  check_bool "same cycle, same state" true
    (Bringup.Waveform.reproducible ~run:(bringup_run ~seed:1L) ~rank:0 ~cycle:200_000)

let test_scan_captures_progress () =
  let a = Bringup.Scan.capture_at ~run:(bringup_run ~seed:1L) ~rank:0 ~cycle:150_000 in
  let b = Bringup.Scan.capture_at ~run:(bringup_run ~seed:1L) ~rank:0 ~cycle:3_000_000 in
  check_bool "state evolves between cycles" false
    (Fnv.equal a.Bringup.Scan.trace_digest b.Bringup.Scan.trace_digest)

let test_waveform_no_false_divergence () =
  let wf seed =
    Bringup.Waveform.assemble ~run:(bringup_run ~seed) ~rank:0 ~from_cycle:100_000
      ~cycles:5 ~stride:1000 ()
  in
  check_int "five samples" 5 (Bringup.Waveform.length (wf 1L));
  Alcotest.(check (option int)) "identical runs don't diverge" None
    (Bringup.Waveform.divergence (wf 1L) (wf 1L))

let test_multichip_alignment () =
  let a = Bringup.Multichip.aligned_packet_cycle ~seed:2L ~src:0 ~dst:1 ~work_before_send:10_000 () in
  let b = Bringup.Multichip.aligned_packet_cycle ~seed:2L ~src:0 ~dst:1 ~work_before_send:10_000 () in
  check_int "same relative injection cycle across reboots" a b;
  check_bool "after the compute window" true (a > 10_000)

let test_timing_bug_hunt () =
  let bug = Bringup.Timing_bug.default_bug in
  (* identify which of 4 chips are susceptible (manufacturing skew) *)
  let machine = Bg_kabi.Machine.create ~dims:(4, 1, 1) () in
  let susceptible =
    List.filter
      (fun r -> Bringup.Timing_bug.susceptible bug (Bg_kabi.Machine.chip machine r))
      [ 0; 1; 2; 3 ]
  in
  check_bool "the bug affects some but not all chips" true
    (List.length susceptible > 0 && List.length susceptible < 4);
  let findings = Bringup.Timing_bug.hunt bug ~ranks:4 ~samples:8 ~runs_per_rank:4 ~seed:77L in
  check_bool "hunt found the bug" true (findings <> []);
  List.iter
    (fun f ->
      check_bool "every finding is a susceptible chip" true
        (List.mem f.Bringup.Timing_bug.rank susceptible);
      check_bool "divergence localized near the glitch" true
        (abs (f.Bringup.Timing_bug.diverged_at - bug.Bringup.Timing_bug.glitch_cycle) < 3_000))
    findings

let test_vhdl_boot_economics () =
  let rows = Bringup.Vhdl_sim.comparison () in
  check_int "three kernels" 3 (List.length rows);
  let find name = List.find (fun r -> r.Bringup.Vhdl_sim.kernel = name) rows in
  let cnk = find "CNK" and stripped = find "Linux (stripped)" and full = find "Linux (full)" in
  (* a couple of hours vs days vs weeks *)
  check_bool "cnk in hours" true
    (cnk.Bringup.Vhdl_sim.wall > 3600.0 && cnk.Bringup.Vhdl_sim.wall < 6.0 *. 3600.0);
  check_bool "stripped in days" true
    (stripped.Bringup.Vhdl_sim.wall > 86400.0
    && stripped.Bringup.Vhdl_sim.wall < 7.0 *. 86400.0);
  check_bool "full in weeks" true (full.Bringup.Vhdl_sim.wall > 14.0 *. 86400.0);
  Alcotest.(check string) "human rendering" "3.0 days"
    (Bringup.Vhdl_sim.human ~seconds:(3.0 *. 86400.0))

(* ------------------------------------------------------------------ *)
(* Capability tables *)

let test_table2_matches_paper () =
  check_int "eleven rows" 11 (List.length Caps.Matrix.table2);
  let cell d =
    match Caps.Matrix.find d with
    | Some c -> (Caps.Matrix.ease_to_string c.Caps.Matrix.use_cnk,
                 Caps.Matrix.ease_to_string c.Caps.Matrix.use_linux)
    | None -> Alcotest.failf "missing row %s" d
  in
  Alcotest.(check (pair string string)) "large pages" ("easy", "medium") (cell "Large page use");
  Alcotest.(check (pair string string)) "no TLB misses" ("easy", "not avail") (cell "No TLB misses");
  Alcotest.(check (pair string string)) "protection" ("not avail", "easy")
    (cell "Full memory protection");
  Alcotest.(check (pair string string)) "contiguous" ("easy", "easy - hard")
    (cell "Large physically contiguous memory");
  Alcotest.(check (pair string string)) "cycle repro" ("easy", "not avail")
    (cell "Cycle reproducible execution");
  Alcotest.(check (pair string string)) "overcommit" ("easy - not avail", "medium")
    (cell "Over commit of threads")

let test_table3_subset () =
  check_int "six rows, as the paper" 6 (List.length Caps.Matrix.table3);
  List.iter
    (fun c ->
      check_bool "every table3 row extends a table2 row" true
        (List.memq c Caps.Matrix.table2))
    Caps.Matrix.table3

let test_tables_render () =
  let s2 = Format.asprintf "%a" Caps.Matrix.pp_table2 () in
  let s3 = Format.asprintf "%a" Caps.Matrix.pp_table3 () in
  check_bool "table2 text" true (String.length s2 > 400);
  check_bool "table3 text" true (String.length s3 > 200)

let suite =
  [
    Alcotest.test_case "fwq: cnk quiet" `Quick test_fwq_cnk_quiet;
    Alcotest.test_case "fwq: fwk noisy, per-core" `Quick test_fwq_fwk_noisy_with_per_core_contrast;
    Alcotest.test_case "fwq: contrast factor" `Quick test_fwq_cnk_vs_fwk_factor;
    Alcotest.test_case "fwq: histogram" `Quick test_fwq_histogram;
    Alcotest.test_case "inject: raises spread" `Quick test_injection_raises_fwq_spread;
    Alcotest.test_case "analysis: recovers injection" `Quick
      test_analysis_recovers_injected_signature;
    Alcotest.test_case "analysis: quiet is eventless" `Quick
      test_analysis_quiet_kernel_is_eventless;
    Alcotest.test_case "analysis: classifies linux" `Quick test_analysis_classifies_linux_noise;
    Alcotest.test_case "scaling: magnification" `Quick test_scaling_magnification;
    Alcotest.test_case "scaling: synchronized daemons" `Quick
      test_scaling_synchronized_daemons;
    Alcotest.test_case "scaling: injected" `Quick test_scaling_injected_profile;
    Alcotest.test_case "stability: allreduce stddev" `Quick test_stability_stddev_contrast;
    Alcotest.test_case "stability: linpack spread" `Quick test_linpack_spread_contrast;
    Alcotest.test_case "bringup: scan reproducible" `Quick test_scan_is_reproducible;
    Alcotest.test_case "bringup: scan progresses" `Quick test_scan_captures_progress;
    Alcotest.test_case "bringup: waveform stable" `Quick test_waveform_no_false_divergence;
    Alcotest.test_case "bringup: multichip aligned" `Quick test_multichip_alignment;
    Alcotest.test_case "bringup: timing-bug hunt" `Quick test_timing_bug_hunt;
    Alcotest.test_case "bringup: vhdl boot" `Quick test_vhdl_boot_economics;
    Alcotest.test_case "caps: table2 cells" `Quick test_table2_matches_paper;
    Alcotest.test_case "caps: table3 subset" `Quick test_table3_subset;
    Alcotest.test_case "caps: render" `Quick test_tables_render;
  ]
