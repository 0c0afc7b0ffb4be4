open Bg_engine

type thread_report = {
  thread : int;
  samples : int array;
  min_cycles : int;
  max_cycles : int;
  mean_cycles : float;
  spread_percent : float;
}

type report = { kernel : string; threads : thread_report list }

let report_of kernel (r : Bg_apps.Fwq.result) =
  let threads =
    List.map
      (fun (thread, samples) ->
        let s = Stats.summarize (Array.map float_of_int samples) in
        {
          thread;
          samples;
          min_cycles = int_of_float s.Stats.min;
          max_cycles = int_of_float s.Stats.max;
          mean_cycles = s.Stats.mean;
          spread_percent = Stats.spread_percent s;
        })
      r.Bg_apps.Fwq.thread_samples
  in
  { kernel; threads }

(* One harness for both kernels: boot, run FWQ on every node, report. *)
let run (type c) (module K : Kernel.CLUSTER with type t = c) (cluster : c) ~kernel ~samples =
  K.boot_all cluster;
  let entry, collect = Bg_apps.Fwq.program ~samples ~threads:4 () in
  K.run_job cluster (Job.create ~name:"fwq" (Image.executable ~name:"fwq" entry));
  report_of kernel (collect ())

let run_on_cnk ?(samples = 12_000) ?(seed = 1L) () =
  run (module Cnk.Cluster) (Cnk.Cluster.create ~dims:(1, 1, 1) ~seed ()) ~kernel:"CNK" ~samples

let run_on_fwk ?(samples = 12_000) ?noise_seed ?daemons () =
  run (module Bg_fwk.Cluster)
    (Bg_fwk.Cluster.create ?noise_seed ?daemons ~dims:(1, 1, 1) ())
    ~kernel:"Linux (FWK)" ~samples

let histogram tr ~bins =
  let lo = float_of_int tr.min_cycles and hi = float_of_int (tr.max_cycles + 1) in
  let h = Stats.Histogram.create ~lo ~hi ~bins in
  Array.iter (fun v -> Stats.Histogram.add h (float_of_int v)) tr.samples;
  List.init bins (fun i -> (Stats.Histogram.bin_lo h i, (Stats.Histogram.counts h).(i)))

let max_spread r =
  List.fold_left (fun acc t -> Float.max acc t.spread_percent) 0.0 r.threads

let pp ppf r =
  Format.fprintf ppf "FWQ on %s:@." r.kernel;
  List.iter
    (fun t ->
      Format.fprintf ppf
        "  thread %d: min %d, max %d (+%d cycles), mean %.0f, spread %.4f%%@."
        t.thread t.min_cycles t.max_cycles (t.max_cycles - t.min_cycles) t.mean_cycles
        t.spread_percent)
    r.threads
