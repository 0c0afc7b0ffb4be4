(* obs_tool — run a small workload with the observability collector
   enabled and export what it saw.

     dune exec bin/obs_tool.exe -- --app fwq --chrome-trace out.json

   runs FWQ on a one-node CNK machine (launched through the control
   system's scheduler, so scheduler decisions appear in the trace) and
   writes a Chrome trace-event file loadable in chrome://tracing or
   Perfetto. --metrics-csv / --spans-csv dump the registry and span
   rings as CSV; --kernel fwk runs the same app on the Linux-like FWK
   for side-by-side comparison. The emitted JSON is validated before it
   is written, and the collector's span digest is printed so two runs
   of the same seed can be diffed with `grep digest`. *)

open Cmdliner
module Obs = Bg_obs.Obs
module Export = Bg_obs.Export
module Noise = Bg_noise

let app_program app ~samples =
  match app with
  | "fwq" ->
    let entry, _collect = Bg_apps.Fwq.program ~samples ~threads:4 () in
    entry
  | "ftq" ->
    let entry, _collect = Bg_apps.Ftq.program ~windows:(max 1 (samples / 100)) () in
    entry
  | other -> failwith (Printf.sprintf "unknown app %S (try fwq or ftq)" other)

let run_cnk ~app ~samples ~seed ~noise =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) ~seed () in
  let machine = Cnk.Cluster.machine cluster in
  let obs = Machine.obs machine in
  Obs.set_enabled obs true;
  Cnk.Cluster.boot_all cluster;
  if noise then
    Noise.Injection.attach
      (Cnk.Cluster.node cluster 0)
      ~profile:{ period_cycles = 850_000; duration_cycles = 16_000; jitter = 0.1 }
      ~seed:(Int64.add seed 7L)
      ~until:(Bg_engine.Sim.now (Cnk.Cluster.sim cluster) + 200_000_000);
  (* Route the job through the control system rather than launching
     directly, so the run exercises the scheduler instrumentation too. *)
  let sched = Bg_control.Scheduler.create cluster in
  let entry = app_program app ~samples in
  let job = Job.create ~name:app (Image.executable ~name:app entry) in
  ignore (Bg_control.Scheduler.submit sched ~shape:(1, 1, 1) job);
  Bg_control.Scheduler.drain sched;
  obs

let run_fwk ~app ~samples ~seed ~noise =
  let noise_seed = if noise then Some (Int64.add seed 7L) else None in
  let cluster = Bg_fwk.Cluster.create ~seed ?noise_seed ~dims:(1, 1, 1) () in
  let obs = Machine.obs (Bg_fwk.Cluster.machine cluster) in
  Obs.set_enabled obs true;
  Bg_fwk.Cluster.boot_all cluster;
  let entry = app_program app ~samples in
  Bg_fwk.Cluster.run_job cluster (Job.create ~name:app (Image.executable ~name:app entry));
  obs

let categories obs =
  List.sort_uniq compare (List.map (fun s -> s.Obs.cat) (Obs.spans obs))

let summarize obs =
  Printf.printf "spans: %d recorded, %d retained, %d dropped, %d left open\n"
    (Obs.span_count obs)
    (List.length (Obs.spans obs))
    (Obs.dropped_spans obs) (Obs.open_count obs);
  if Obs.dropped_spans obs > 0 then begin
    Printf.printf
      "WARNING: span ring overflow — %d span(s) evicted; raise ?ring_spans or \
       narrow instrumentation (per-scope obs/dropped_spans counters below)\n"
      (Obs.dropped_spans obs);
    List.iter
      (fun m ->
        if m.Obs.key.Obs.subsystem = "obs" && m.Obs.key.Obs.name = "dropped_spans"
        then Format.printf "  %a@." Obs.pp_metric m)
      (Obs.snapshot obs)
  end;
  Printf.printf "span categories: %s\n" (String.concat ", " (categories obs));
  Printf.printf "span digest: %s\n" (Bg_engine.Fnv.to_hex (Obs.digest obs));
  let metrics = Obs.snapshot obs in
  Printf.printf "metrics: %d keys\n" (List.length metrics);
  List.iter (fun m -> Format.printf "  %a@." Obs.pp_metric m) metrics

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n%!" path (String.length contents)

let run app kernel samples seed noise chrome metrics_csv spans_csv quiet =
  let obs =
    match kernel with
    | "cnk" -> run_cnk ~app ~samples ~seed ~noise
    | "fwk" -> run_fwk ~app ~samples ~seed ~noise
    | other -> failwith (Printf.sprintf "unknown kernel %S (try cnk or fwk)" other)
  in
  if not quiet then summarize obs;
  (match chrome with
  | None -> ()
  | Some path ->
    let json = Export.chrome_trace obs in
    (match Export.validate_json json with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "internal error: emitted bad JSON: %s" e));
    write_file path json);
  (match metrics_csv with
  | None -> ()
  | Some path -> write_file path (Export.metrics_csv obs));
  (match spans_csv with
  | None -> ()
  | Some path -> write_file path (Export.spans_csv obs));
  (* The smoke target relies on this: a CNK FWQ run must produce spans
     from every instrumented layer it promises. (FTQ is single-threaded
     and syscall-free, so only FWQ makes the guarantee.) *)
  if kernel = "cnk" && app = "fwq" then begin
    let cats = categories obs in
    let want = [ "cio"; "scheduler"; "syscall"; "tlb" ] in
    let missing = List.filter (fun c -> not (List.mem c cats)) want in
    if missing <> [] then
      failwith ("missing span categories: " ^ String.concat ", " missing)
  end

let cmd =
  let app_t =
    Arg.(value & opt string "fwq" & info [ "app" ] ~doc:"Workload: fwq or ftq.")
  in
  let kernel =
    Arg.(value & opt string "cnk" & info [ "kernel" ] ~doc:"Kernel: cnk or fwk.")
  in
  let samples =
    Arg.(value & opt int 2_000 & info [ "samples" ] ~doc:"Workload size (FWQ samples).")
  in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Machine seed.") in
  let noise = Arg.(value & flag & info [ "noise" ] ~doc:"Attach noise injection.") in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~doc:"Write a Chrome trace-event JSON file.")
  in
  let metrics_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-csv" ] ~doc:"Write the metrics registry as CSV.")
  in
  let spans_csv =
    Arg.(
      value & opt (some string) None & info [ "spans-csv" ] ~doc:"Write spans as CSV.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the summary.") in
  Cmd.v
    (Cmd.info "obs_tool" ~doc:"Run a workload with observability on and export traces")
    Term.(
      const run $ app_t $ kernel $ samples $ seed $ noise $ chrome $ metrics_csv
      $ spans_csv $ quiet)

let () = exit (Cmd.eval cmd)
