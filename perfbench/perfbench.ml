(* perfbench — the standing host-performance benchmark of the simulator.

     sh perfbench/run.sh --workload fwq-cnk-512 --seed 1 --seconds 20 --trace 0

   One workload per invocation, one domain, no threads; each iteration
   runs in a forked child, one at a time. An untraced run (--trace 0)
   repeats the workload for --seconds after one warm-up iteration and
   reports the end-to-end metrics as medians. A traced run
   (--trace 1) does a shorter untraced loop, then one traced iteration
   (phase spans with GC deltas, pending-depth sampling), the isolation
   cells, the collectors-off pair where the workload has one and two
   back-to-back iterations in one process, and reports the per-layer
   metrics. Every iteration checks its outputs; every timed iteration
   must repeat the warm-up's deterministic counters. Every time is scaled to a reference host speed by the
   calibrate.exe probe run at the start of its part (Summary.scale,
   Phase.part). The last line of standard output is one JSON object;
   the full record, spans included, goes to .perfbench/. *)

module P = Phase
module S = Summary
module W = Workloads

let out_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Iterations *)

let iteration (w : W.t) ~run ~seed ~traced =
  let it = P.create ~traced in
  P.reprobe it;
  (match P.group it "iteration" (fun () -> run it ~seed) with
  | () -> ()
  | exception e ->
    Printf.eprintf "perfbench: %s iteration failed: %s\n%!" w.W.name (Printexc.to_string e);
    P.count it ~attempted:1 ~failed:1);
  P.finish it;
  it

(* Runs [f] in a forked child and returns what the child sent back, or
   [None] if it died. The parent waits for the child before going on, so
   only one process runs at a time. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    (try Marshal.to_channel oc (f ()) [] with _ -> Unix._exit 1);
    close_out oc;
    flush_all ();
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let got = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    let _, status = Unix.waitpid [] pid in
    if status = Unix.WEXITED 0 then got else None

(* Every iteration runs in a forked child of the benchmark process, which
   itself never builds a machine, so each starts from the same process
   state and a heap as small as a fresh tool run's. The libraries keep
   some process-global tables keyed by machine instance (the simulated
   malloc heaps, for one) that grow with every machine built, so
   back-to-back iterations in one process would not allocate the same
   words; the traced run measures that drift instead
   ([rerun_drift_words]). *)
let isolated (w : W.t) ~run ~seed ~traced =
  match in_child (fun () : P.t -> iteration w ~run ~seed ~traced) with
  | Some it -> it
  | None ->
    Printf.eprintf "perfbench: %s iteration process died\n%!" w.W.name;
    let it = P.create ~traced in
    P.count it ~attempted:1 ~failed:1;
    it

(* Words the second of two back-to-back iterations in one process
   allocates beyond the first: the cost of the process-global state the
   fork hides. It is reported, not checked, so a library change that
   stops the state from growing shows as this figure falling to 0. *)
let rerun_drift_words (w : W.t) ~seed =
  in_child (fun () : (float * float) ->
      let first = iteration w ~run:w.W.run ~seed ~traced:false in
      let second = iteration w ~run:w.W.run ~seed ~traced:false in
      (first.P.words, second.P.words))
  |> Option.map (fun (a, b) -> b -. a)

type loop = {
  warm : P.t;
  timed : P.t list;
  tally : S.tally;  (** every check of every iteration, plus determinism *)
}

(* One warm-up iteration, then timed iterations until [budget] seconds
   have passed and at least [min_iters] were timed. *)
let timed_loop (w : W.t) ~seed ~budget ~min_iters =
  let t0 = P.now () in
  let warm = isolated w ~run:w.W.run ~seed ~traced:false in
  let rec go acc n =
    if n >= min_iters && P.now () -. t0 >= budget then List.rev acc
    else go (isolated w ~run:w.W.run ~seed ~traced:false :: acc) (n + 1)
  in
  let timed = go [] 0 in
  let reference = P.det warm in
  let tally =
    List.fold_left
      (fun acc it ->
        let same = P.det_equal reference (P.det it) in
        if not same then
          Printf.eprintf "perfbench: determinism mismatch\n  warm-up: %s\n  this:    %s\n%!"
            (P.det_to_string reference) (P.det_to_string (P.det it));
        S.add_ops (S.check acc same) it.P.tally)
      warm.P.tally timed
  in
  { warm; timed; tally }

let med l f = S.median (List.map f l.timed)

(* ------------------------------------------------------------------ *)
(* End-to-end metrics (tracing off) *)

let peak_heap_mb it = float_of_int (it.P.top_heap_words * (Sys.word_size / 8)) /. 1e6

let end_to_end l =
  [
    ("setup_s", med l (fun it -> it.P.setup_s), "s");
    ("run_s", med l (fun it -> it.P.run_s), "s");
    ("alloc_mwords", med l (fun it -> it.P.words /. 1e6), "Mword");
    ("peak_heap_mb", med l peak_heap_mb, "MB");
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics (traced run) *)

let phases = [ "create"; "boot"; "generate"; "launch"; "drive"; "collect" ]
let policies = List.map Bg_sched.Strategy.kind_name Bg_sched.Strategy.all_kinds

type traced = {
  metrics : (string * float * string) list;
  spans : P.tracer;
  checks : S.tally;
      (** the traced and collectors-off iterations' own checks, tracing
          being passive, and the isolation cells' sanity *)
}

let per_layer (w : W.t) ~seed l =
  let v k = med l (fun it -> P.get it k) in
  let first = List.hd l.timed in
  let run_s = med l (fun it -> it.P.run_s) in
  let traced = isolated w ~run:w.W.run ~seed ~traced:true in
  (* spans and depth sampling must not change what is simulated *)
  let passive =
    Bg_engine.Fnv.equal traced.P.trace_digest first.P.trace_digest
    && Bg_engine.Fnv.equal traced.P.result_digest first.P.result_digest
  in
  if not passive then prerr_endline "perfbench: error: the traced iteration simulated differently";
  let tr = traced.P.tracer in
  let events = float_of_int first.P.events in
  let pending_mean =
    if traced.P.pending_n = 0 then 0.0
    else traced.P.pending_sum /. float_of_int traced.P.pending_n
  in
  let cell_probe_s = P.probe () in
  let ns_per_event =
    P.group traced "isolate.engine" (fun () ->
        Isolation.engine_ns_per_event ~depth:(int_of_float (Float.round pending_mean))
          ~events:200_000)
    |> S.scale ~probe_s:cell_probe_s
  in
  let requests = v "cio.requests" in
  let codec_ns =
    P.group traced "isolate.codec" (fun () ->
        Isolation.codec_ns_per_request w.W.request_mix ~requests:20_000)
    |> S.scale ~probe_s:cell_probe_s
  in
  (* a cell that predicts more time than the whole run measured is an
     error in the cell, not a share *)
  let sane name cost =
    let ok = cost <= run_s in
    if not ok then
      Printf.eprintf "perfbench: error: %s cell predicts %.3f s > run_s %.3f s\n%!" name cost run_s;
    ok
  in
  let engine_cost = ns_per_event *. events /. 1e9 in
  let engine_sane = sane "engine" engine_cost in
  let codec_sane = sane "codec" (codec_ns *. requests /. 1e9) in
  let off =
    match w.W.obs_off with
    | None -> []
    | Some run -> List.init 2 (fun _ -> isolated w ~run ~seed ~traced:false)
  in
  let drift = rerun_drift_words w ~seed in
  let overhead_s =
    if off = [] then 0.0 else run_s -. S.median (List.map (fun it -> it.P.run_s) off)
  in
  let checks =
    List.fold_left (fun acc it -> S.add_ops acc it.P.tally) traced.P.tally off
  in
  let checks =
    List.fold_left S.check checks [ passive; engine_sane; codec_sane; drift <> None ]
  in
  let all_spans = P.spans tr in
  let root = List.find (fun sp -> sp.P.parent = -1) all_spans in
  let by_name name f =
    List.fold_left (fun a sp -> if sp.P.name = name then a +. f sp else a) 0.0 all_spans
  in
  let spans_n = v "obs.spans" in
  let retrans = v "cio.retransmits" in
  let offered = v "sched.offered" in
  let m name value unit_ = (name, value, unit_) in
  let metrics =
    [
      m "engine.events" events "count";
      m "engine.sim_cycles" (float_of_int first.P.sim_cycles) "cycles";
      m "engine.events_per_s" (events /. run_s) "1/s";
      m "engine.words_per_event"
        (if events > 0.0 then v "drive_mwords" *. 1e6 /. events else 0.0)
        "word";
      m "engine.pending_mean" pending_mean "count";
      m "engine.pending_peak" (float_of_int traced.P.pending_peak) "count";
      m "engine.ns_per_event" ns_per_event "ns";
      (* -1 marks a cell that over-predicts the run: an error, not a share *)
      m "engine.share" (if engine_sane then engine_cost /. run_s else -1.0) "ratio";
    ]
    @ List.concat_map
        (fun k ->
          [
            m (k ^ ".boot_s") (v (k ^ ".boot_s")) "s";
            m (k ^ ".launch_s") (v (k ^ ".launch_s")) "s";
            m (k ^ ".launch_mwords") (v (k ^ ".launch_mwords")) "Mword";
            m (k ^ ".run_s") (v (k ^ ".run_s")) "s";
            m (k ^ ".events") (v (k ^ ".events")) "count";
          ])
        [ "cnk"; "fwk" ]
    @ [
        m "runtime.syscalls" (v "runtime.syscalls") "count";
        m "runtime.rerun_drift_words" (Option.value drift ~default:0.0) "word";
        m "cio.requests" requests "count";
        m "cio.retransmits" retrans "count";
        m "cio.queue_rejects" (v "cio.queue_rejects") "count";
        m "cio.goodput"
          (if requests > 0.0 then requests /. (requests +. retrans) else 0.0)
          "ratio";
        m "cio.queue_depth_peak" (P.get traced "cio.queue_depth_peak") "count";
        m "cio.codec_ns" codec_ns "ns";
        m "hw.dma_descriptors" (v "hw.dma_descriptors") "count";
        m "hw.dma_stalls" (v "hw.dma_stalls") "count";
        m "hw.torus_transfers" (v "hw.torus_transfers") "count";
        m "hw.torus_busy_cycles" (v "hw.torus_busy_cycles") "cycles";
        m "msg.iterations" (v "msg.iterations") "count";
        m "obs.spans" spans_n "count";
        m "obs.dropped_spans" (v "obs.dropped_spans") "count";
        m "obs.causal_nodes" (v "obs.causal_nodes") "count";
        m "obs.causal_dropped" (v "obs.causal_dropped") "count";
        m "obs.overhead_s" overhead_s "s";
        m "obs.ns_per_span" (if spans_n > 0.0 then overhead_s *. 1e9 /. spans_n else 0.0) "ns";
        m "sched.generate_s" (v "sched.generate_s") "s";
      ]
    @ List.map (fun p -> m ("sched.policy_s." ^ p) (v ("sched.policy_s." ^ p)) "s") policies
    @ [
        m "sched.slo_s" (v "sched.slo_s") "s";
        m "sched.words_per_job"
          (if offered > 0.0 then v "sched.drive_mwords" *. 1e6 /. offered else 0.0) "word";
        m "sched.backfilled" (v "sched.backfilled") "count";
        m "sched.gangs" (v "sched.gangs") "count";
        m "sched.wait_p99_cycles" (v "sched.wait_p99_cycles") "cycles";
      ]
    @ List.map
        (fun k -> m ("control." ^ k) (v ("control." ^ k)) "count")
        [ "completed"; "failed"; "shed"; "refused"; "walltime_kills" ]
    @ [
        m "resilience.substitutions" (v "resilience.substitutions") "count";
        m "resilience.transitions" (v "resilience.transitions") "count";
      ]
    @ List.concat_map
        (fun ph ->
          [
            m ("gc." ^ ph ^ ".minor_collections")
              (by_name ph (fun sp -> float_of_int (sp.P.g1.P.minor - sp.P.g0.P.minor)))
              "count";
            m ("gc." ^ ph ^ ".major_collections")
              (by_name ph (fun sp -> float_of_int (sp.P.g1.P.major - sp.P.g0.P.major)))
              "count";
            m ("gc." ^ ph ^ ".promoted_mwords")
              (by_name ph (fun sp -> (sp.P.g1.P.promoted -. sp.P.g0.P.promoted) /. 1e6))
              "Mword";
          ])
        phases
    @ List.map
        (fun ph ->
          m ("trace.self_s." ^ ph) (by_name ph (fun sp -> P.self_time tr sp *. sp.P.factor)) "s")
        phases
    @ [
        m "trace.coverage" (P.leaf_coverage tr root) "ratio";
        m "trace.overhead_s" (traced.P.run_s -. run_s) "s";
        m "host.probe_s" (med l P.probe_median) "s";
      ]
  in
  { metrics; spans = tr; checks }

(* ------------------------------------------------------------------ *)
(* Output *)

let print_table (w : W.t) ~seed ~trace l metrics tally =
  Printf.printf "perfbench %s seed=%Ld trace=%d: %d timed iterations after 1 warm-up\n"
    w.W.name seed trace (List.length l.timed);
  let series name =
    match name with
    | "setup_s" -> Some (List.map (fun it -> it.P.setup_s) l.timed)
    | "run_s" -> Some (List.map (fun it -> it.P.run_s) l.timed)
    | _ -> None
  in
  List.iter
    (fun (name, value, unit_) ->
      match series name with
      | Some xs ->
        let q1, _, q3 = S.quartiles xs in
        let tail =
          match S.tail_percentile xs with
          | Some (p, x) -> Printf.sprintf "p%g %.6g" p x
          | None -> "no tail percentile (<10 samples beyond p50)"
        in
        Printf.printf "  %-32s %14.6g %-6s median of %d, q1 %.6g q3 %.6g, %s\n" name value
          unit_ (List.length xs) q1 q3 tail
      | None -> Printf.printf "  %-32s %14.6g %s\n" name value unit_)
    metrics;
  Printf.printf "  %-32s %14.6g        %d failed of %d checked operations\n" "failed_frac"
    (S.failed_frac tally) tally.S.failed tally.S.attempted;
  Printf.printf
    "  times are scaled to the reference host speed (probe %.3f s); unscaled medians: \
     setup_s %.6g s, run_s %.6g s, probe %.6g s\n"
    S.reference_probe_s
    (med l (fun it -> it.P.setup_raw_s))
    (med l (fun it -> it.P.run_raw_s))
    (med l P.probe_median)

let span_json tr =
  let spans = P.spans tr in
  let t0 = match spans with sp :: _ -> sp.P.start | [] -> 0.0 in
  S.Arr
    (List.map
       (fun sp ->
         S.Obj
           [
             ("id", S.Num (float_of_int sp.P.id));
             ("name", S.Str sp.P.name);
             ("parent", S.Num (float_of_int sp.P.parent));
             ("start_s", S.Num (sp.P.start -. t0));
             ("end_s", S.Num (sp.P.stop -. t0));
             ("self_s", S.Num (P.self_time tr sp));
             ("minor_collections", S.Num (float_of_int (sp.P.g1.P.minor - sp.P.g0.P.minor)));
             ("major_collections", S.Num (float_of_int (sp.P.g1.P.major - sp.P.g0.P.major)));
             ("alloc_words", S.Num (sp.P.g1.P.words -. sp.P.g0.P.words));
             ("promoted_words", S.Num (sp.P.g1.P.promoted -. sp.P.g0.P.promoted));
           ])
       spans)

let write_record (w : W.t) ~seed ~trace l ~metrics ~spans ~tally =
  let iteration_json it =
    let d = P.det it in
    S.Obj
      [
        ("setup_s", S.Num it.P.setup_s);
        ("run_s", S.Num it.P.run_s);
        ("setup_raw_s", S.Num it.P.setup_raw_s);
        ("run_raw_s", S.Num it.P.run_raw_s);
        ("probes_s", S.Arr (List.rev_map (fun p -> S.Num p) it.P.probes));
        ("alloc_words", S.Num d.P.d_words);
        ("events", S.Num (float_of_int d.P.d_events));
        ("sim_cycles", S.Num (float_of_int d.P.d_cycles));
        ("trace_digest", S.Str (Bg_engine.Fnv.to_hex d.P.d_trace));
        ("result_digest", S.Str (Bg_engine.Fnv.to_hex d.P.d_result));
      ]
  in
  let record =
    S.Obj
      [
        ("workload", S.Str w.W.name);
        ("seed", S.Str (Int64.to_string seed));
        ("trace", S.Num (float_of_int trace));
        ("warmup", iteration_json l.warm);
        ("iterations", S.Arr (List.map iteration_json l.timed));
        ("attempted", S.Num (float_of_int tally.S.attempted));
        ("failed", S.Num (float_of_int tally.S.failed));
        ("metrics", S.Obj (List.map (fun (n, v, u) -> (n, S.metric v u)) metrics));
        ("spans", spans);
      ]
  in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/%s-seed%Ld-trace%d.json" out_dir w.W.name seed trace in
  let oc = open_out path in
  output_string oc (S.to_string record);
  output_char oc '\n';
  close_out oc

let main ~workload ~seed ~seconds ~trace =
  let w =
    match W.find workload with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.W.name) W.all));
      exit 2
  in
  if trace = 0 then begin
    let l = timed_loop w ~seed ~budget:(float_of_int seconds) ~min_iters:3 in
    let metrics = end_to_end l in
    print_table w ~seed ~trace l metrics l.tally;
    write_record w ~seed ~trace l ~metrics ~spans:S.Null ~tally:l.tally;
    let correct = l.tally.S.failed = 0 in
    print_endline (S.to_string (S.result_line ~correct ~tally:l.tally ~metrics))
  end
  else begin
    let l = timed_loop w ~seed ~budget:(float_of_int seconds /. 2.0) ~min_iters:2 in
    let t = per_layer w ~seed l in
    let tally = S.add_ops l.tally t.checks in
    print_table w ~seed ~trace l t.metrics tally;
    write_record w ~seed ~trace l ~metrics:t.metrics ~spans:(span_json t.spans) ~tally;
    let correct = tally.S.failed = 0 in
    print_endline (S.to_string (S.result_line ~correct ~tally ~metrics:t.metrics))
  end

let () =
  let workload = ref "" and seed = ref 1L and seconds = ref 10 and trace = ref 0 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage with
  | Arg.Bad msg | Arg.Help msg ->
    prerr_string msg;
    exit 2
  | Failure _ ->
    prerr_endline usage;
    exit 2);
  (* the statistics every figure rests on are checked on every run *)
  (match Selftest.run () with
  | [] -> ()
  | failures ->
    List.iter (fun f -> Printf.eprintf "perfbench selftest FAILED: %s\n" f) failures;
    exit 1);
  if !workload = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
