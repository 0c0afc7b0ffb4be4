(* Tests for the observability layer: span rings, metrics registry,
   exporters — and the invariant the whole design hangs on: turning
   collection on must not perturb the simulated machine. *)

open Bg_engine
open Bg_kabi
module Obs = Bg_obs.Obs
module Export = Bg_obs.Export
module Accounting = Bg_obs.Accounting
module Upc = Bg_hw.Upc
module Rt = Bg_rt

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Span rings *)

let test_ring_wraparound () =
  let o = Obs.create ~ring_capacity:4 ~enabled:true () in
  for i = 0 to 9 do
    Obs.span_record o ~cat:"t" ~name:(Printf.sprintf "s%d" i) ~rank:0 ~core:0
      ~start:(i * 10)
      ~finish:((i * 10) + 5)
  done;
  check_int "all recordings counted" 10 (Obs.span_count o);
  check_int "overwritten accounted" 6 (Obs.dropped_spans o);
  let spans = Obs.spans o in
  check_int "capacity retained" 4 (List.length spans);
  (match spans with
  | first :: _ -> check_int "oldest survivor is s6" 60 first.Obs.start
  | [] -> Alcotest.fail "no spans retained");
  let starts = List.map (fun s -> s.Obs.start) spans in
  check_bool "oldest first" true (starts = List.sort compare starts)

let test_nested_span_balance () =
  let o = Obs.create ~enabled:true () in
  let outer = Obs.span_begin o ~cat:"k" ~name:"outer" ~rank:1 ~core:2 ~now:100 in
  let inner = Obs.span_begin o ~cat:"k" ~name:"inner" ~rank:1 ~core:2 ~now:110 in
  check_int "two open" 2 (Obs.open_count o);
  Obs.span_end o inner ~now:120;
  Obs.span_end o outer ~now:150;
  check_int "balanced" 0 (Obs.open_count o);
  (match Obs.spans o with
  | [ a; b ] ->
    Alcotest.(check string) "outer first (by start)" "outer" a.Obs.name;
    check_int "outer at depth 0" 0 a.Obs.depth;
    check_int "inner at depth 1" 1 b.Obs.depth;
    check_int "inner finish kept" 120 b.Obs.finish
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l)));
  (* ending an already-ended handle must be a no-op *)
  Obs.span_end o inner ~now:999;
  check_int "double end ignored" 2 (Obs.span_count o)

let test_disabled_is_noop () =
  let o = Obs.create () in
  let h = Obs.span_begin o ~cat:"x" ~name:"n" ~rank:0 ~core:0 ~now:1 in
  check_bool "null handle" true (h = Obs.null_handle);
  Obs.span_end o h ~now:2;
  Obs.incr o ~subsystem:"x" ~name:"c" ();
  Obs.observe_cycles o ~subsystem:"x" ~name:"t" 5;
  check_int "no spans" 0 (Obs.span_count o);
  check_int "no metrics" 0 (List.length (Obs.snapshot o));
  check_bool "digest untouched" true (Fnv.equal (Obs.digest o) Fnv.empty)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_timer_single_sample () =
  let o = Obs.create ~enabled:true () in
  Obs.observe_cycles o ~subsystem:"s" ~name:"lat" 42;
  match Obs.timer_stats o ~subsystem:"s" ~name:"lat" () with
  | None -> Alcotest.fail "timer missing"
  | Some st ->
    check_int "one sample" 1 (Stats.Online.n st);
    Alcotest.(check (float 1e-9)) "mean=min=max" 42.0 (Stats.Online.mean st);
    Alcotest.(check (float 1e-9)) "min" 42.0 (Stats.Online.min st);
    Alcotest.(check (float 1e-9)) "max" 42.0 (Stats.Online.max st)

let test_timer_histogram_clamps () =
  let o = Obs.create ~enabled:true () in
  let feed = Obs.observe_cycles o ~hi:100.0 ~bins:10 ~subsystem:"s" ~name:"lat" in
  feed 0;
  (* below range and far above range must clamp into the edge bins *)
  feed 1_000_000;
  feed 99;
  match Obs.timer_histogram o ~subsystem:"s" ~name:"lat" () with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
    let counts = Stats.Histogram.counts h in
    check_int "all samples binned" 3 (Stats.Histogram.total h);
    check_int "first bin" 1 counts.(0);
    check_int "last bin holds clamp + 99" 2 counts.(Array.length counts - 1)

let test_counters_and_snapshot_order () =
  let o = Obs.create ~enabled:true () in
  Obs.incr o ~rank:1 ~core:0 ~subsystem:"syscall" ~name:"write" ();
  Obs.incr o ~rank:0 ~core:0 ~subsystem:"syscall" ~name:"write" ~by:3 ();
  Obs.incr o ~rank:0 ~core:0 ~subsystem:"syscall" ~name:"write" ();
  Obs.set_gauge o ~rank:0 ~subsystem:"tlb" ~name:"entries" 64;
  check_int "per-scope" 4 (Obs.counter_value o ~rank:0 ~core:0 ~subsystem:"syscall" ~name:"write" ());
  check_int "summed over scopes" 5 (Obs.counter_total o ~subsystem:"syscall" ~name:"write");
  let keys = List.map (fun m -> m.Obs.key) (Obs.snapshot o) in
  check_bool "snapshot deterministically sorted" true
    (keys = List.sort compare keys)

(* ------------------------------------------------------------------ *)
(* Determinism: the acceptance criterion of the whole layer *)

(* With collection on, the whole observability stack is live: spans and
   metrics, the cycle-accounting ledger, and the UPC counter unit. None
   of them may perturb the architectural trace. *)
let fwq_run ~obs_on =
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) ~seed:3L () in
  let machine = Cnk.Cluster.machine cluster in
  if obs_on then begin
    Obs.set_enabled (Machine.obs machine) true;
    Accounting.set_enabled (Machine.acct machine) true;
    Bg_hw.Upc.start (Bg_hw.Chip.upc (Machine.chip machine 0))
  end;
  Cnk.Cluster.boot_all cluster;
  let entry, _ = Bg_apps.Fwq.program ~samples:150 ~threads:4 () in
  Cnk.Cluster.run_job cluster
    (Job.create ~name:"fwq" (Image.executable ~name:"fwq" entry));
  (Trace.digest (Sim.trace (Cnk.Cluster.sim cluster)), machine)

let test_sim_digest_unperturbed () =
  let off, _ = fwq_run ~obs_on:false in
  let on_, machine = fwq_run ~obs_on:true in
  check_bool "sim trace digest identical with obs+acct+UPC on vs off" true
    (Fnv.equal off on_);
  check_bool "and the run actually collected something" true
    (Obs.span_count (Machine.obs machine) > 0)

let test_obs_digest_reproducible () =
  let _, a = fwq_run ~obs_on:true in
  let _, b = fwq_run ~obs_on:true in
  let a = Machine.obs a and b = Machine.obs b in
  Alcotest.(check string) "span digest reproducible"
    (Fnv.to_hex (Obs.digest a))
    (Fnv.to_hex (Obs.digest b));
  check_bool "digest covers spans" false (Fnv.equal (Obs.digest a) Fnv.empty)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_chrome_trace_valid_json () =
  let _, machine = fwq_run ~obs_on:true in
  let obs = Machine.obs machine in
  let json = Export.chrome_trace obs in
  (match Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("emitted invalid JSON: " ^ e));
  let cats = List.sort_uniq compare (List.map (fun s -> s.Obs.cat) (Obs.spans obs)) in
  List.iter
    (fun c -> check_bool ("category " ^ c) true (List.mem c cats))
    [ "syscall"; "cio"; "tlb" ]

let test_json_validator_rejects () =
  check_bool "garbage" true (Result.is_error (Export.validate_json "{"));
  check_bool "trailing" true (Result.is_error (Export.validate_json "{} x"));
  check_bool "bare word" true (Result.is_error (Export.validate_json "nope"));
  check_bool "unterminated string" true
    (Result.is_error (Export.validate_json "{\"a\": \"b}"));
  check_bool "valid nested" true
    (Result.is_ok (Export.validate_json "{\"a\":[1,2.5e3,true,null,\"s\\n\"]}"))

let test_csv_exports () =
  let _, machine = fwq_run ~obs_on:true in
  let obs = Machine.obs machine in
  let metrics = Export.metrics_csv obs in
  let spans = Export.spans_csv obs in
  check_bool "metrics header" true
    (String.length metrics > 0
    && String.sub metrics 0 9 = "subsystem");
  check_bool "spans header" true
    (String.length spans > 0 && String.sub spans 0 3 = "cat");
  check_int "one line per span + header"
    (List.length (Obs.spans obs) + 1)
    (List.length (String.split_on_char '\n' (String.trim spans)))

(* ------------------------------------------------------------------ *)
(* Histogram percentiles *)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:100.0 ~bins:100 in
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0 (Stats.Histogram.percentile h 0.5);
  for i = 1 to 100 do
    Stats.Histogram.add h (float_of_int i -. 0.5)
  done;
  Alcotest.(check (float 1e-6)) "sum of raw samples" 5000.0 (Stats.Histogram.sum h);
  Alcotest.(check (float 1e-6)) "p50" 50.0 (Stats.Histogram.percentile h 0.50);
  Alcotest.(check (float 1e-6)) "p90" 90.0 (Stats.Histogram.percentile h 0.90);
  Alcotest.(check (float 1e-6)) "p99" 99.0 (Stats.Histogram.percentile h 0.99);
  Alcotest.(check (float 1e-6)) "p999" 99.9 (Stats.Histogram.percentile h 0.999);
  check_bool "clamped p" true
    (Stats.Histogram.percentile h (-1.0) <= Stats.Histogram.percentile h 2.0)

let test_timer_snapshot_percentiles () =
  let o = Obs.create ~enabled:true () in
  let feed = Obs.observe_cycles o ~hi:1000.0 ~bins:100 ~subsystem:"s" ~name:"lat" in
  for i = 1 to 100 do
    feed ((i * 10) - 5)
  done;
  match
    List.filter (fun m -> match m.Obs.value with Obs.Timer _ -> true | _ -> false)
      (Obs.snapshot o)
  with
  | [ { Obs.value = Obs.Timer t; _ } ] ->
    check_int "n" 100 t.n;
    Alcotest.(check (float 1e-6)) "sum" 50_000.0 t.sum;
    check_bool "percentiles ordered" true
      (t.p50 <= t.p90 && t.p90 <= t.p99 && t.p99 <= t.p999);
    check_bool "p50 plausible" true (t.p50 > 400.0 && t.p50 < 600.0);
    check_bool "p999 near max" true (t.p999 > 900.0)
  | _ -> Alcotest.fail "expected exactly one timer in snapshot"

(* ------------------------------------------------------------------ *)
(* Span ordering tie-break *)

let test_span_order_tie_break () =
  let o = Obs.create ~enabled:true () in
  (* same start cycle everywhere; recorded deliberately out of order *)
  Obs.span_record o ~cat:"t" ~name:"r2" ~rank:2 ~core:0 ~start:100 ~finish:110;
  Obs.span_record o ~cat:"t" ~name:"r0c1_a" ~rank:0 ~core:1 ~start:100 ~finish:120;
  Obs.span_record o ~cat:"t" ~name:"r0c0" ~rank:0 ~core:0 ~start:100 ~finish:130;
  Obs.span_record o ~cat:"t" ~name:"r0c1_b" ~rank:0 ~core:1 ~start:100 ~finish:140;
  let names = List.map (fun (s : Obs.span) -> s.Obs.name) (Obs.spans o) in
  Alcotest.(check (list string))
    "equal starts sort by rank, then core, then completion order"
    [ "r0c0"; "r0c1_a"; "r0c1_b"; "r2" ] names

(* ------------------------------------------------------------------ *)
(* UPC counter unit *)

let test_upc_freeze_semantics () =
  let u = Upc.create ~cores:2 () in
  Upc.record u ~core:0 Upc.Tlb_miss 5;
  check_int "stopped unit ignores records" 0 (Upc.read u ~core:0 Upc.Tlb_miss);
  Upc.start u;
  Upc.record u ~core:0 Upc.Tlb_miss 5;
  Upc.record u Upc.Torus_packet 2;
  check_int "live read" 5 (Upc.read u ~core:0 Upc.Tlb_miss);
  check_bool "no snapshot before freeze" true (Upc.frozen_snapshot u = None);
  Upc.freeze u;
  Upc.record u ~core:0 Upc.Tlb_miss 3;
  check_int "live keeps counting" 8 (Upc.read u ~core:0 Upc.Tlb_miss);
  (match Upc.frozen_snapshot u with
  | None -> Alcotest.fail "freeze lost"
  | Some rs ->
    let miss =
      List.find (fun r -> r.Upc.event = Upc.Tlb_miss && r.Upc.core = 0) rs
    in
    check_int "frozen value latched" 5 miss.Upc.count);
  Upc.reset u;
  check_bool "reset stops and clears" true
    ((not (Upc.running u)) && Upc.snapshot u = [] && Upc.frozen_snapshot u = None)

let test_upc_deterministic_across_runs () =
  let digests () =
    let _, machine = fwq_run ~obs_on:true in
    ( Fnv.to_hex (Upc.digest (Bg_hw.Chip.upc (Machine.chip machine 0))),
      Fnv.to_hex (Accounting.digest (Machine.acct machine)) )
  in
  let upc_a, acct_a = digests () in
  let upc_b, acct_b = digests () in
  Alcotest.(check string) "UPC digest identical across seeded runs" upc_a upc_b;
  Alcotest.(check string) "ledger digest identical across seeded runs" acct_a acct_b

(* ------------------------------------------------------------------ *)
(* Cycle accounting: conservation *)

let test_accounting_unit_conservation () =
  let a = Accounting.create ~enabled:true () in
  Accounting.switch a ~rank:0 ~core:0 ~now:100 Accounting.App;
  Accounting.switch a ~rank:0 ~core:0 ~now:600 Accounting.Syscall;
  Accounting.switch a ~rank:0 ~core:0 ~now:700 Accounting.App;
  Accounting.attribute a ~rank:0 ~core:0 ~now:1700
    [ (Accounting.Daemon, 200); (Accounting.Interrupt, 50) ];
  (match Accounting.entries a with
  | [ e ] ->
    check_int "app" (500 + 750) (Accounting.cycles e Accounting.App);
    check_int "syscall" 100 (Accounting.cycles e Accounting.Syscall);
    check_int "daemon" 200 (Accounting.cycles e Accounting.Daemon);
    check_int "interrupt" 50 (Accounting.cycles e Accounting.Interrupt);
    check_bool "conserved" true (Accounting.conserved_entry e)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 entry, got %d" (List.length l)));
  check_bool "over-attribution rejected" true
    (try
       Accounting.attribute a ~rank:0 ~core:0 ~now:1701 [ (Accounting.Daemon, 999) ];
       false
     with Invalid_argument _ -> true)

let test_accounting_conserved_cnk () =
  let _, machine = fwq_run ~obs_on:true in
  let acct = Machine.acct machine in
  check_bool "conservation on every CNK core" true (Accounting.conserved acct);
  let entries = Accounting.entries acct in
  check_bool "all four cores touched" true (List.length entries >= 4);
  let totals = Accounting.totals entries in
  check_bool "app cycles dominate" true
    (List.assoc Accounting.App totals > List.assoc Accounting.Syscall totals);
  check_bool "syscall cycles present" true (List.assoc Accounting.Syscall totals > 0)

let test_accounting_conserved_fwk () =
  let cluster = Bg_fwk.Cluster.create ~noise_seed:5L ~dims:(1, 1, 1) () in
  let machine = Bg_fwk.Cluster.machine cluster in
  Accounting.set_enabled (Machine.acct machine) true;
  Bg_fwk.Cluster.boot_all cluster;
  let entry, _ = Bg_apps.Fwq.program ~samples:400 ~threads:4 () in
  Bg_fwk.Cluster.run_job cluster (Job.create ~name:"fwq" (Image.executable ~name:"fwq" entry));
  let acct = Machine.acct machine in
  check_bool "conservation on every FWK core" true (Accounting.conserved acct);
  let totals = Accounting.totals (Accounting.entries acct) in
  check_bool "timer ticks attributed" true (List.assoc Accounting.Interrupt totals > 0);
  check_bool "daemon steals attributed" true (List.assoc Accounting.Daemon totals > 0)

(* ------------------------------------------------------------------ *)
(* Flamegraph export *)

let test_collapsed_stacks_golden () =
  let o = Obs.create ~enabled:true () in
  let outer = Obs.span_begin o ~cat:"job" ~name:"outer" ~rank:0 ~core:0 ~now:0 in
  let inner = Obs.span_begin o ~cat:"job" ~name:"inner" ~rank:0 ~core:0 ~now:10 in
  Obs.span_end o inner ~now:40;
  Obs.span_end o outer ~now:100;
  Obs.span_record o ~cat:"tick" ~name:"t0" ~rank:1 ~core:2 ~start:5 ~finish:9;
  Alcotest.(check string) "golden collapsed-stack output"
    "rank0/core0;job:outer 70\n\
     rank0/core0;job:outer;job:inner 30\n\
     rank1/core2;tick:t0 4\n"
    (Export.collapsed_stacks o)

let test_collapsed_stacks_from_run () =
  let _, machine = fwq_run ~obs_on:true in
  let folded = Export.collapsed_stacks (Machine.obs machine) in
  check_bool "non-empty" true (String.length folded > 0);
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.fail ("malformed folded line: " ^ line)
        | Some i ->
          let w = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
          check_bool "non-negative weight" true (w >= 0))
    (String.split_on_char '\n' folded)

let test_chrome_trace_counter_events () =
  let o = Obs.create ~enabled:true () in
  Obs.incr o ~rank:0 ~core:1 ~subsystem:"syscall" ~name:"write" ~by:7 ();
  Obs.set_gauge o ~rank:0 ~subsystem:"tlb" ~name:"entries" 64;
  let json = Export.chrome_trace o in
  (match Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("counter events broke the JSON: " ^ e));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "has ph:C rows" true (contains json "\"ph\":\"C\"")

let test_dropped_spans_counter_row () =
  (* Span loss from ring wraparound must be visible in the trace viewer:
     the per-scope obs.dropped_spans counter gets its own ph:"C" row. *)
  let o = Obs.create ~ring_capacity:4 ~enabled:true () in
  for i = 0 to 9 do
    Obs.span_record o ~cat:"t" ~name:"s" ~rank:2 ~core:1 ~start:(i * 10)
      ~finish:((i * 10) + 5)
  done;
  check_int "six spans overwritten" 6 (Obs.dropped_spans o);
  check_int "mirrored as a counter" 6
    (Obs.counter_value o ~rank:2 ~core:1 ~subsystem:"obs" ~name:"dropped_spans" ());
  let json = Export.chrome_trace o in
  (match Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("trace broke the JSON: " ^ e));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "dropped_spans has a counter row" true
    (contains json "\"name\":\"obs.dropped_spans[c1]\",\"ph\":\"C\"")

let test_reset_clears_state () =
  (* Obs.reset must drop everything: retained and dropped spans, open
     handles, depth state, metrics and the digest — so a reused
     collector can't leak one run's loss accounting into the next. *)
  let o = Obs.create ~ring_capacity:4 ~enabled:true () in
  for i = 0 to 9 do
    Obs.span_record o ~cat:"t" ~name:"s" ~rank:0 ~core:0 ~start:i ~finish:(i + 1)
  done;
  let open_h = Obs.span_begin o ~cat:"t" ~name:"open" ~rank:0 ~core:0 ~now:99 in
  Obs.incr o ~subsystem:"x" ~name:"c" ();
  check_bool "precondition: losses recorded" true (Obs.dropped_spans o > 0);
  check_int "precondition: one open span" 1 (Obs.open_count o);
  Obs.reset o;
  check_int "dropped_spans cleared" 0 (Obs.dropped_spans o);
  check_int "dropped_spans counter cleared" 0
    (Obs.counter_value o ~subsystem:"obs" ~name:"dropped_spans" ());
  check_int "open spans cleared" 0 (Obs.open_count o);
  check_int "span count cleared" 0 (Obs.span_count o);
  check_int "metrics cleared" 0 (List.length (Obs.snapshot o));
  check_bool "digest cleared" true (Fnv.equal (Obs.digest o) Fnv.empty);
  (* a stale handle from before the reset must be ignored, not revive *)
  Obs.span_end o open_h ~now:120;
  check_int "stale handle ignored" 0 (Obs.span_count o)

(* ------------------------------------------------------------------ *)
(* Query_perf syscall, on both kernels *)

let perf_program () =
  let ok = ref false in
  let body () =
    (match Coro.syscall (Sysreq.Query_perf Sysreq.Perf_start) with
    | Sysreq.R_unit -> ()
    | _ -> failwith "perf_start failed");
    let a = Rt.Malloc.malloc 4096 in
    Rt.Libc.poke a 1;
    ignore (Rt.Libc.peek a);
    (match Coro.syscall (Sysreq.Query_perf Sysreq.Perf_freeze) with
    | Sysreq.R_unit -> ()
    | _ -> failwith "perf_freeze failed");
    (* post-freeze activity must not move the latched snapshot *)
    Rt.Libc.poke a 2;
    ignore (Rt.Libc.peek a);
    let first = Sysreq.expect_perf (Coro.syscall (Sysreq.Query_perf Sysreq.Perf_read)) in
    Rt.Libc.poke a 3;
    let second = Sysreq.expect_perf (Coro.syscall (Sysreq.Query_perf Sysreq.Perf_read)) in
    if first = [] then failwith "empty perf reading";
    if first <> second then failwith "frozen snapshot drifted";
    ok := true
  in
  (body, ok)

let test_perf_syscall_cnk () =
  let body, ok = perf_program () in
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  Cnk.Cluster.run_job cluster
    (Job.create ~name:"perf" (Image.executable ~name:"perf" (fun () -> body ())));
  Alcotest.(check (list (pair int string))) "no faults" []
    (Cnk.Node.faults (Cnk.Cluster.node cluster 0));
  check_bool "CNK program read frozen UPC counters" true !ok

let test_perf_syscall_fwk () =
  let body, ok = perf_program () in
  let cluster = Bg_fwk.Cluster.create ~noise_seed:9L ~dims:(1, 1, 1) () in
  Bg_fwk.Cluster.boot_all cluster;
  Bg_fwk.Cluster.run_job cluster
    (Job.create ~name:"perf" (Image.executable ~name:"perf" (fun () -> body ())));
  Alcotest.(check (list (pair int string))) "no faults" []
    (Bg_fwk.Node.faults (Bg_fwk.Cluster.node cluster 0));
  check_bool "FWK program read frozen UPC counters" true !ok

let suite =
  [
    Alcotest.test_case "span ring: wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "spans: nested balance" `Quick test_nested_span_balance;
    Alcotest.test_case "disabled collector is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "timer: single sample" `Quick test_timer_single_sample;
    Alcotest.test_case "timer histogram: clamping" `Quick test_timer_histogram_clamps;
    Alcotest.test_case "counters + snapshot order" `Quick test_counters_and_snapshot_order;
    Alcotest.test_case "sim digest unperturbed by obs" `Quick test_sim_digest_unperturbed;
    Alcotest.test_case "obs digest reproducible" `Quick test_obs_digest_reproducible;
    Alcotest.test_case "chrome trace is valid JSON" `Quick test_chrome_trace_valid_json;
    Alcotest.test_case "json validator rejects junk" `Quick test_json_validator_rejects;
    Alcotest.test_case "csv exports" `Quick test_csv_exports;
    Alcotest.test_case "histogram: exact percentiles + sum" `Quick test_histogram_percentiles;
    Alcotest.test_case "timer snapshot surfaces percentiles" `Quick test_timer_snapshot_percentiles;
    Alcotest.test_case "span order: equal-start tie-break" `Quick test_span_order_tie_break;
    Alcotest.test_case "upc: freeze/read semantics" `Quick test_upc_freeze_semantics;
    Alcotest.test_case "upc + ledger digests deterministic" `Quick test_upc_deterministic_across_runs;
    Alcotest.test_case "accounting: unit conservation" `Quick test_accounting_unit_conservation;
    Alcotest.test_case "accounting: conserved on CNK" `Quick test_accounting_conserved_cnk;
    Alcotest.test_case "accounting: conserved on FWK" `Quick test_accounting_conserved_fwk;
    Alcotest.test_case "collapsed stacks: golden output" `Quick test_collapsed_stacks_golden;
    Alcotest.test_case "collapsed stacks: well-formed from run" `Quick test_collapsed_stacks_from_run;
    Alcotest.test_case "chrome trace: counter events" `Quick test_chrome_trace_counter_events;
    Alcotest.test_case "chrome trace: dropped_spans counter row" `Quick
      test_dropped_spans_counter_row;
    Alcotest.test_case "reset clears spans, losses, metrics" `Quick
      test_reset_clears_state;
    Alcotest.test_case "query_perf syscall on CNK" `Quick test_perf_syscall_cnk;
    Alcotest.test_case "query_perf syscall on FWK" `Quick test_perf_syscall_fwk;
  ]
