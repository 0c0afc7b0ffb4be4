(* noise_tool — FWQ and noise-at-scale measurements from the command line.

     dune exec bin/noise_tool.exe -- fwq --kernel cnk
     dune exec bin/noise_tool.exe -- fwq --kernel fwk --samples 5000
     dune exec bin/noise_tool.exe -- inject --period 500000 --duration 25000
     dune exec bin/noise_tool.exe -- scale --nodes 65536
     dune exec bin/noise_tool.exe -- attribute --samples 2000 *)

open Cmdliner
module Noise = Bg_noise
module Accounting = Bg_obs.Accounting
module Obs = Bg_obs.Obs
module Export = Bg_obs.Export

let fwq_report kernel samples =
  match kernel with
  | "cnk" -> Noise.Fwq_harness.run_on_cnk ~samples ()
  | "fwk" -> Noise.Fwq_harness.run_on_fwk ~samples ()
  | _ -> failwith "kernel must be cnk or fwk"

let fwq kernel samples =
  Format.printf "%a" Noise.Fwq_harness.pp (fwq_report kernel samples);
  0

let inject period duration samples =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let profile =
    { Noise.Injection.period_cycles = period; duration_cycles = duration; jitter = 0.3 }
  in
  Format.printf "injecting %a into CNK@." Noise.Injection.pp_profile profile;
  Noise.Injection.attach (Cnk.Cluster.node cluster 0) ~profile ~seed:5L
    ~until:(Bg_engine.Sim.now (Cnk.Cluster.sim cluster) + 30_000_000_000);
  let entry, collect = Bg_apps.Fwq.program ~samples ~threads:4 () in
  Cnk.Cluster.run_job cluster
    (Job.create ~name:"fwq" (Image.executable ~name:"fwq" entry));
  Printf.printf "FWQ max spread with injection: %.4f%%\n"
    (Bg_apps.Fwq.max_spread_percent (collect ()));
  0

let characterize kernel samples =
  let report = fwq_report kernel samples in
  List.iter
    (fun t ->
      let s = Noise.Analysis.characterize t.Noise.Fwq_harness.samples in
      Format.printf "core %d: %a" t.Noise.Fwq_harness.thread Noise.Analysis.pp s;
      List.iter
        (fun (lo, hi, c) -> Printf.printf "    %6d..%6d cycles: %d events\n" lo hi c)
        (Noise.Analysis.classify s ~bins:6))
    report.Noise.Fwq_harness.threads;
  0

(* --- per-source noise attribution (ledger + UPC + flamegraphs) --------- *)

(* One FWQ run with accounting, observability and the UPC unit all live.
   Returns the machine the run happened on; the caller reads ledgers,
   counters and spans off it. *)
let attributed_run (type c) (module K : Kernel.CLUSTER with type t = c) (cluster : c) samples =
  let machine = K.machine cluster in
  Obs.set_enabled machine.Machine.obs true;
  Accounting.set_enabled machine.Machine.acct true;
  Bg_hw.Upc.start (Bg_hw.Chip.upc (Machine.chip machine 0));
  K.boot_all cluster;
  let entry, collect = Bg_apps.Fwq.program ~samples ~threads:4 () in
  K.run_job cluster (Job.create ~name:"fwq" (Image.executable ~name:"fwq" entry));
  ignore (collect ());
  machine

(* Share of a core's attributed cycles that noise sources (timer ticks +
   daemons) stole — the quantity the paper's Figs 5-7 chase. *)
let noise_share entries =
  let totals = Accounting.totals entries in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 totals in
  let part st = List.assoc st totals in
  if total = 0 then 0.0
  else
    float_of_int (part Accounting.Interrupt + part Accounting.Daemon)
    /. float_of_int total

let print_decomposition label (machine : Machine.t) =
  let acct = machine.Machine.acct in
  let entries = Accounting.entries acct in
  let totals = Accounting.totals entries in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 totals in
  Printf.printf "== %s ==\n" label;
  Printf.printf "  %-10s %14s %8s\n" "state" "cycles" "share";
  List.iter
    (fun (st, c) ->
      Printf.printf "  %-10s %14d %7.3f%%\n" (Accounting.state_name st) c
        (if total = 0 then 0.0 else 100.0 *. float_of_int c /. float_of_int total))
    totals;
  Printf.printf "  conservation: %s\n"
    (if Accounting.conserved acct then "attributed = elapsed on every core"
     else "VIOLATED");
  let upc = Bg_hw.Chip.upc (Machine.chip machine 0) in
  Printf.printf "  UPC counters:\n";
  List.iter
    (fun (r : Bg_hw.Upc.reading) ->
      let scope =
        if r.Bg_hw.Upc.core = Bg_hw.Upc.chip_scope then "chip"
        else Printf.sprintf "core%d" r.Bg_hw.Upc.core
      in
      Printf.printf "    %-18s %-6s %d\n"
        (Bg_hw.Upc.event_name r.Bg_hw.Upc.event)
        scope r.Bg_hw.Upc.count)
    (Bg_hw.Upc.snapshot upc);
  Printf.printf "  acct digest=%s upc digest=%s\n"
    (Bg_engine.Fnv.to_hex (Accounting.digest acct))
    (Bg_engine.Fnv.to_hex (Bg_hw.Upc.digest upc));
  if not (Accounting.conserved acct) then failwith (label ^ ": conservation violated")

let attribute samples folded_prefix =
  Printf.printf "noise attribution: FWQ, %d samples per thread\n" samples;
  let cnk =
    attributed_run (module Cnk.Cluster) (Cnk.Cluster.create ~dims:(1, 1, 1) ~seed:1L ()) samples
  in
  print_decomposition "CNK" cnk;
  (* fixed noise phase: attribution runs must be reproducible *)
  let fwk =
    attributed_run (module Bg_fwk.Cluster)
      (Bg_fwk.Cluster.create ~noise_seed:7L ~dims:(1, 1, 1) ())
      samples
  in
  print_decomposition "Linux (FWK)" fwk;
  let cnk_path = folded_prefix ^ "_cnk.folded" in
  let fwk_path = folded_prefix ^ "_fwk.folded" in
  let write path obs =
    let s = Export.collapsed_stacks obs in
    Export.to_file ~path s;
    List.length (String.split_on_char '\n' (String.trim s))
  in
  let n_cnk = write cnk_path cnk.Machine.obs in
  let n_fwk = write fwk_path fwk.Machine.obs in
  Printf.printf "wrote %s (%d stacks), %s (%d stacks)\n" cnk_path n_cnk fwk_path n_fwk;
  let s_cnk = noise_share (Accounting.entries cnk.Machine.acct) in
  let s_fwk = noise_share (Accounting.entries fwk.Machine.acct) in
  Printf.printf "tick+daemon share: CNK %.4f%%, FWK %.4f%%\n" (100.0 *. s_cnk)
    (100.0 *. s_fwk);
  if s_fwk > s_cnk then begin
    Printf.printf "OK: FWK noise share strictly exceeds CNK's\n";
    0
  end
  else begin
    Printf.printf "FAIL: expected FWK tick+daemon share > CNK share\n";
    1
  end

let scale nodes iterations =
  Printf.printf "allreduce slowdown at %d nodes (x%d iterations):\n" nodes iterations;
  List.iter
    (fun (label, profile) ->
      Printf.printf "  %-14s %.4f\n" label
        (Noise.Scaling.allreduce_slowdown ~nodes ~iterations ~work_cycles:850_000
           ~profile ~seed:11L))
    [ ("quiet (CNK)", Noise.Scaling.Quiet); ("linux daemons", Noise.Scaling.Linux_daemons) ];
  0

let kernel_arg = Arg.(value & opt string "cnk" & info [ "kernel"; "k" ] ~doc:"cnk or fwk.")
let samples_arg = Arg.(value & opt int 12_000 & info [ "samples" ] ~doc:"FWQ samples.")
let period_arg = Arg.(value & opt int 500_000 & info [ "period" ] ~doc:"Injection period (cycles).")
let duration_arg = Arg.(value & opt int 25_000 & info [ "duration" ] ~doc:"Injection duration (cycles).")
let nodes_arg = Arg.(value & opt int 4096 & info [ "nodes" ] ~doc:"Node count.")
let iters_arg = Arg.(value & opt int 300 & info [ "iterations" ] ~doc:"Iterations.")

let attr_samples_arg =
  Arg.(value & opt int 2_000 & info [ "samples" ] ~doc:"FWQ samples per thread.")

let folded_arg =
  Arg.(
    value
    & opt string "/tmp/noise_attr"
    & info [ "folded-prefix" ] ~doc:"Prefix for <prefix>_{cnk,fwk}.folded flamegraph files.")

let cmds =
  [
    Cmd.v (Cmd.info "fwq" ~doc:"Run the FWQ benchmark") Term.(const fwq $ kernel_arg $ samples_arg);
    Cmd.v (Cmd.info "inject" ~doc:"Inject noise into CNK and measure FWQ")
      Term.(const inject $ period_arg $ duration_arg $ samples_arg);
    Cmd.v (Cmd.info "scale" ~doc:"Noise magnification at scale")
      Term.(const scale $ nodes_arg $ iters_arg);
    Cmd.v (Cmd.info "characterize" ~doc:"Infer the noise signature from FWQ data")
      Term.(const characterize $ kernel_arg $ samples_arg);
    Cmd.v
      (Cmd.info "attribute"
         ~doc:
           "Run FWQ under both kernels with the cycle ledger, UPC counters and span \
            collection live; print the per-source noise decomposition and write \
            collapsed-stack flamegraph files.")
      Term.(const attribute $ attr_samples_arg $ folded_arg);
  ]

let () = exit (Cmd.eval' (Cmd.group (Cmd.info "noise_tool" ~doc:"Noise measurement toolbox") cmds))
