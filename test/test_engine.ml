(* Tests for Bg_engine: hashing, RNG determinism, event queue ordering,
   simulator run loop, statistics. *)

open Bg_engine

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Fnv *)

let test_fnv_known () =
  (* FNV-1a of the empty input is the offset basis. *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (Fnv.to_hex Fnv.empty);
  (* Well-known FNV-1a test vector: "a" -> af63dc4c8601ec8c *)
  Alcotest.(check string) "a" "af63dc4c8601ec8c"
    (Fnv.to_hex (Fnv.add_string Fnv.empty "a"))

let test_fnv_order_sensitive () =
  let h1 = Fnv.add_string (Fnv.add_string Fnv.empty "ab") "cd" in
  let h2 = Fnv.add_string (Fnv.add_string Fnv.empty "cd") "ab" in
  Alcotest.(check bool) "order matters" false (Fnv.equal h1 h2)

let test_fnv_int_int64_consistent () =
  let h1 = Fnv.add_int Fnv.empty 12345 in
  let h2 = Fnv.add_int64 Fnv.empty 12345L in
  Alcotest.(check bool) "int matches int64" true (Fnv.equal h1 h2)

(* ------------------------------------------------------------------ *)
(* Crc32 *)

let test_crc32_known () =
  (* The standard CRC-32 check value, plus a sub-range of a larger buffer. *)
  check_int "123456789" 0xCBF43926
    (Crc32.compute (Bytes.of_string "123456789") ~pos:0 ~len:9);
  check_int "offset window" 0xCBF43926
    (Crc32.compute (Bytes.of_string "xx123456789yy") ~pos:2 ~len:9);
  check_int "empty" 0 (Crc32.compute Bytes.empty ~pos:0 ~len:0)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let c1 = Rng.split parent "alpha" in
  let pre = Rng.next_int64 c1 in
  (* Drawing from the parent must not perturb an already-split child's
     identity: re-splitting gives the same child stream. *)
  ignore (Rng.next_int64 parent);
  let c1' = Rng.split parent "alpha" in
  Alcotest.(check int64) "split is stable" pre (Rng.next_int64 c1')

let test_rng_split_distinct () =
  let parent = Rng.create 7L in
  let a = Rng.next_int64 (Rng.split parent "a") in
  let b = Rng.next_int64 (Rng.split parent "b") in
  Alcotest.(check bool) "labels differ" true (a <> b)

let test_rng_int_bounds () =
  let t = Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Rng.int t 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_rng_float_bounds () =
  let t = Rng.create 4L in
  for _ = 1 to 1000 do
    let x = Rng.float t 2.5 in
    Alcotest.(check bool) "in range" true (x >= 0.0 && x < 2.5)
  done

let test_rng_gaussian_moments () =
  let t = Rng.create 5L in
  let acc = Stats.Online.create () in
  for _ = 1 to 20_000 do
    Stats.Online.add acc (Rng.gaussian t ~mu:10.0 ~sigma:2.0)
  done;
  Alcotest.(check bool) "mean near 10" true
    (Float.abs (Stats.Online.mean acc -. 10.0) < 0.1);
  Alcotest.(check bool) "sigma near 2" true
    (Float.abs (Stats.Online.stddev acc -. 2.0) < 0.1)

let test_rng_exponential_mean () =
  let t = Rng.create 6L in
  let acc = Stats.Online.create () in
  for _ = 1 to 20_000 do
    Stats.Online.add acc (Rng.exponential t ~mean:5.0)
  done;
  Alcotest.(check bool) "mean near 5" true
    (Float.abs (Stats.Online.mean acc -. 5.0) < 0.2)

(* ------------------------------------------------------------------ *)
(* Cycles *)

let test_cycles_roundtrip () =
  check_int "1us" 850 (Cycles.of_us 1.0);
  check_float "us back" 1.0 (Cycles.to_us 850);
  check_int "1s" 850_000_000 (Cycles.of_seconds 1.0)

let test_cycles_pp_units () =
  let s c = Format.asprintf "%a" Cycles.pp c in
  Alcotest.(check string) "ns" "118ns" (s 100);
  Alcotest.(check string) "us" "1.18us" (s 1_000);
  Alcotest.(check string) "ms" "1.18ms" (s 1_000_000);
  Alcotest.(check string) "s" "1.18s" (s 1_000_000_000)

let test_sim_max_events () =
  let sim = Sim.create () in
  let fired = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.schedule_at sim i (fun () -> incr fired))
  done;
  (match Sim.run ~max_events:4 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "expected limit");
  check_int "only four" 4 !fired;
  ignore (Sim.run sim);
  check_int "rest later" 10 !fired

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:30 "c");
  ignore (Event_queue.add q ~time:10 "a");
  ignore (Event_queue.add q ~time:20 "b");
  let order = List.init 3 (fun _ -> Option.get (Event_queue.pop q)) in
  Alcotest.(check (list (pair int string)))
    "sorted" [ (10, "a"); (20, "b"); (30, "c") ] order

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:5 "first");
  ignore (Event_queue.add q ~time:5 "second");
  ignore (Event_queue.add q ~time:5 "third");
  let order = List.init 3 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] order

let test_queue_cancel () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "dead" in
  ignore (Event_queue.add q ~time:2 "live");
  Event_queue.cancel q h;
  Event_queue.cancel q h;
  check_int "one live" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string))) "live pops" (Some (2, "live"))
    (Event_queue.pop q);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_queue_cancel_after_fire () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "x" in
  ignore (Event_queue.pop q);
  Event_queue.cancel q h;
  (* A later add must not be affected by the stale cancel. *)
  ignore (Event_queue.add q ~time:3 "y");
  check_int "length" 1 (Event_queue.length q)

let test_queue_peek_skips_cancelled () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "dead" in
  ignore (Event_queue.add q ~time:9 "live");
  Event_queue.cancel q h;
  Alcotest.(check (option int)) "peek" (Some 9) (Event_queue.peek_time q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.add q ~time:t t)) times;
      let rec drain last acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) ->
          if t < last then failwith "out of order";
          drain t (t :: acc)
      in
      let popped = drain 0 [] in
      List.length popped = List.length times)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_ordering_and_clock () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim 100 (fun () -> log := ("b", Sim.now sim) :: !log));
  ignore (Sim.schedule_at sim 50 (fun () -> log := ("a", Sim.now sim) :: !log));
  (match Sim.run sim with
  | Sim.Completed -> ()
  | _ -> Alcotest.fail "expected completion");
  Alcotest.(check (list (pair string int)))
    "events in order" [ ("a", 50); ("b", 100) ] (List.rev !log);
  check_int "clock at last event" 100 (Sim.now sim)

let test_sim_schedule_from_event () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore
    (Sim.schedule_at sim 10 (fun () ->
         ignore (Sim.schedule_in sim 5 (fun () -> fired := Sim.now sim))));
  ignore (Sim.run sim);
  check_int "chained event" 15 !fired

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule_at sim 1000 (fun () -> fired := true));
  (match Sim.run ~until:500 sim with
  | Sim.Reached_limit -> ()
  | _ -> Alcotest.fail "expected limit");
  Alcotest.(check bool) "not fired" false !fired;
  check_int "clock advanced to limit" 500 (Sim.now sim);
  ignore (Sim.run sim);
  Alcotest.(check bool) "fires later" true !fired

let test_sim_halt () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim 1 (fun () -> Sim.halt sim "scan"));
  ignore (Sim.schedule_at sim 2 (fun () -> Alcotest.fail "must not run"));
  match Sim.run sim with
  | Sim.Halted reason -> Alcotest.(check string) "reason" "scan" reason
  | _ -> Alcotest.fail "expected halt"

let test_sim_rng_stream_persistent () =
  let sim = Sim.create ~seed:9L () in
  let a = Rng.next_int64 (Sim.rng sim "noise") in
  let b = Rng.next_int64 (Sim.rng sim "noise") in
  Alcotest.(check bool) "stream advances" true (a <> b)

let test_trace_record_retention () =
  let t = Trace.create ~keep_records:true () in
  Trace.emit t ~cycle:5 ~label:"a" ~value:1L;
  Trace.emit t ~cycle:9 ~label:"b" ~value:2L;
  check_int "count" 2 (Trace.count t);
  check_int "last cycle" 9 (Trace.last_cycle t);
  (match Trace.records t with
  | [ r1; r2 ] ->
    Alcotest.(check string) "order preserved" "a" r1.Trace.label;
    check_int "cycle kept" 9 r2.Trace.cycle
  | _ -> Alcotest.fail "expected two records");
  (* digest matches a record-free trace fed the same events *)
  let t2 = Trace.create () in
  Trace.emit t2 ~cycle:5 ~label:"a" ~value:1L;
  Trace.emit t2 ~cycle:9 ~label:"b" ~value:2L;
  Alcotest.(check bool) "digest independent of retention" true
    (Fnv.equal (Trace.digest t) (Trace.digest t2));
  Alcotest.(check (list (pair int string))) "no records kept by default" []
    (List.map (fun r -> (r.Trace.cycle, r.Trace.label)) (Trace.records t2))

let test_sim_trace_digest_reproducible () =
  let run_once () =
    let sim = Sim.create ~seed:5L () in
    for i = 1 to 50 do
      ignore
        (Sim.schedule_at sim (i * 10) (fun () ->
             Sim.emit sim ~label:"tick" ~value:(Int64.of_int i)))
    done;
    ignore (Sim.run sim);
    Trace.digest (Sim.trace sim)
  in
  Alcotest.(check bool) "identical digests" true
    (Fnv.equal (run_once ()) (run_once ()))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_int "n" 5 s.Stats.n;
  check_float "mean" 3.0 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 5.0 s.Stats.max;
  check_float "median" 3.0 s.Stats.median;
  check_float "stddev" (sqrt 2.5) s.Stats.stddev

let test_stats_spread () =
  let s = Stats.summarize [| 100.0; 105.0 |] in
  check_float "spread%" 5.0 (Stats.spread_percent s)

let test_stats_spread_zero_min () =
  (* all-zero samples (an idle FTQ window) have no spread, not NaN *)
  check_float "all zero" 0.0 (Stats.spread_percent (Stats.summarize [| 0.0; 0.0; 0.0 |]));
  let s = Stats.summarize [| 0.0; 4.0 |] in
  Alcotest.(check bool) "zero min, nonzero max" true (Stats.spread_percent s = infinity)

let test_trace_iter_matches_records () =
  let t = Trace.create ~keep_records:true () in
  for i = 1 to 5 do
    Trace.emit t ~cycle:(i * 3) ~label:(Printf.sprintf "e%d" i) ~value:(Int64.of_int i)
  done;
  let seen = ref [] in
  Trace.iter t (fun r -> seen := r :: !seen);
  Alcotest.(check bool) "iter visits records oldest-first" true
    (List.rev !seen = Trace.records t);
  (* iter on a record-free trace visits nothing *)
  let bare = Trace.create () in
  Trace.emit bare ~cycle:1 ~label:"x" ~value:0L;
  Trace.iter bare (fun _ -> Alcotest.fail "no records should be retained")

let test_stats_online_matches_batch () =
  let xs = Array.init 1000 (fun i -> sin (float_of_int i)) in
  let s = Stats.summarize xs in
  let o = Stats.Online.create () in
  Array.iter (Stats.Online.add o) xs;
  Alcotest.(check (float 1e-9)) "mean" s.Stats.mean (Stats.Online.mean o);
  Alcotest.(check (float 1e-9)) "stddev" s.Stats.stddev (Stats.Online.stddev o)

let test_stats_histogram () =
  let h = Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.9; 9.5; -3.0; 42.0 ];
  let counts = Stats.Histogram.counts h in
  check_int "bin0 (incl clamped low)" 2 counts.(0);
  check_int "bin1" 2 counts.(1);
  check_int "bin9 (incl clamped high)" 2 counts.(9);
  check_int "total" 6 (Stats.Histogram.total h)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile stays within min..max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Stats.percentile arr p in
      let s = Stats.summarize arr in
      v >= s.Stats.min -. 1e-9 && v <= s.Stats.max +. 1e-9)

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest [ prop_queue_sorted; prop_percentile_bounds ]

let suite =
  [
    Alcotest.test_case "fnv: known vectors" `Quick test_fnv_known;
    Alcotest.test_case "fnv: order sensitive" `Quick test_fnv_order_sensitive;
    Alcotest.test_case "fnv: int/int64 consistent" `Quick test_fnv_int_int64_consistent;
    Alcotest.test_case "crc32: known answer" `Quick test_crc32_known;
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: split stable" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: split labels distinct" `Quick test_rng_split_distinct;
    Alcotest.test_case "rng: int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng: float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng: gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "rng: exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "cycles: conversions" `Quick test_cycles_roundtrip;
    Alcotest.test_case "cycles: pp units" `Quick test_cycles_pp_units;
    Alcotest.test_case "sim: max events" `Quick test_sim_max_events;
    Alcotest.test_case "queue: time order" `Quick test_queue_time_order;
    Alcotest.test_case "queue: fifo on ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue: cancel" `Quick test_queue_cancel;
    Alcotest.test_case "queue: cancel after fire" `Quick test_queue_cancel_after_fire;
    Alcotest.test_case "queue: peek skips cancelled" `Quick test_queue_peek_skips_cancelled;
    Alcotest.test_case "sim: ordering and clock" `Quick test_sim_ordering_and_clock;
    Alcotest.test_case "sim: schedule from event" `Quick test_sim_schedule_from_event;
    Alcotest.test_case "sim: until limit" `Quick test_sim_until;
    Alcotest.test_case "sim: halt" `Quick test_sim_halt;
    Alcotest.test_case "sim: rng stream persistent" `Quick test_sim_rng_stream_persistent;
    Alcotest.test_case "trace: record retention" `Quick test_trace_record_retention;
    Alcotest.test_case "sim: trace digest reproducible" `Quick test_sim_trace_digest_reproducible;
    Alcotest.test_case "stats: summary" `Quick test_stats_summary;
    Alcotest.test_case "stats: spread" `Quick test_stats_spread;
    Alcotest.test_case "stats: spread zero-min guard" `Quick test_stats_spread_zero_min;
    Alcotest.test_case "trace: iter matches records" `Quick test_trace_iter_matches_records;
    Alcotest.test_case "stats: online = batch" `Quick test_stats_online_matches_batch;
    Alcotest.test_case "stats: histogram" `Quick test_stats_histogram;
  ]
  @ qcheck
