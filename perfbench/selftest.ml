(* Self-tests of the benchmark's own statistics and accounting. Expected
   values for the quartiles are what Python's
   [statistics.quantiles(data, n=4)] returns for the same data. Returns
   the failures; an empty list means every rule holds. *)

module S = Summary

let run () =
  let failures = ref [] in
  let expect name ok = if not ok then failures := name :: !failures in
  let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs b) in
  let triple (a, b, c) (x, y, z) = close a x && close b y && close c z in
  (* median *)
  expect "median odd" (close (S.median [ 3.0; 1.0; 2.0 ]) 2.0);
  expect "median even" (close (S.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  expect "median single" (close (S.median [ 7.0 ]) 7.0);
  (* quartiles, 'exclusive' method *)
  expect "quartiles 1..5" (triple (S.quartiles [ 1.; 2.; 3.; 4.; 5. ]) (1.5, 3.0, 4.5));
  expect "quartiles 1..10"
    (triple (S.quartiles (List.init 10 (fun i -> float_of_int (i + 1)))) (2.75, 5.5, 8.25));
  expect "quartiles two" (triple (S.quartiles [ 3.0; 1.0 ]) (0.5, 2.0, 3.5));
  expect "quartiles unsorted"
    (triple (S.quartiles [ 0.5; 0.25; 2.0; 1.0 ]) (0.3125, 0.75, 1.75));
  (* a tail percentile needs ten samples beyond it *)
  let ints n = List.init n (fun i -> float_of_int (i + 1)) in
  expect "tail: 19 samples" (S.tail_percentile (ints 19) = None);
  expect "tail: 20 samples" (S.tail_percentile (ints 20) = Some (50.0, 10.0));
  expect "tail: 40 samples" (S.tail_percentile (ints 40) = Some (75.0, 30.0));
  expect "tail: 100 samples" (S.tail_percentile (ints 100) = Some (90.0, 90.0));
  expect "tail: 1000 samples" (S.tail_percentile (ints 1000) = Some (99.0, 990.0));
  expect "tail: 10000 samples" (S.tail_percentile (ints 10000) = Some (99.9, 9990.0));
  (* host-speed scaling: a host twice as slow as the reference halves *)
  expect "scale" (close (S.scale ~probe_s:(2.0 *. S.reference_probe_s) 3.0) 1.5);
  expect "scale at reference" (close (S.scale ~probe_s:S.reference_probe_s 0.7) 0.7);
  (* failure accounting *)
  let t = S.check (S.check (S.check S.no_ops true) false) true in
  expect "tally" (t.S.attempted = 3 && t.S.failed = 1);
  expect "failed_frac" (close (S.failed_frac t) (1.0 /. 3.0));
  expect "failed_frac none attempted" (close (S.failed_frac S.no_ops) 1.0);
  let u = S.add_ops t { S.attempted = 7; failed = 0 } in
  expect "add_ops" (u.S.attempted = 10 && u.S.failed = 1 && close (S.failed_frac u) 0.1);
  (* records and the result line are valid JSON; spread.py reads the
     record back and compares it with the result line *)
  let valid j = Bg_obs.Export.validate_json (S.to_string j) = Ok () in
  let record =
    S.Obj
      [
        ("workload", S.Str "io-ship-16 \"quoted\"\n\\\t");
        ("values", S.Arr [ S.Num 0.1; S.Num 1e-9; S.Num 12345678.0; S.Num (-2.5); S.Num nan ]);
        ("flags", S.Obj [ ("t", S.Bool true); ("f", S.Bool false) ]);
        ("empty", S.Obj []);
        ("none", S.Arr [ S.Null ]);
      ]
  in
  expect "record is JSON" (valid record);
  let line =
    S.result_line ~correct:true ~tally:{ S.attempted = 4; failed = 0 }
      ~metrics:[ ("run_s", 1.25, "s") ]
  in
  expect "result line is JSON" (valid line);
  expect "result line"
    (S.to_string line
    = {|{"correct":true,"attempted":4,"failed":0,"metrics":{"run_s":{"value":1.25,"unit":"s"}}}|});
  (* span self time and coverage *)
  let tr = Phase.tracer true in
  let mk id name parent start stop =
    let g = { Phase.words = 0.0; minor = 0; major = 0; promoted = 0.0 } in
    { Phase.id; name; parent; start; stop; g0 = g; g1 = g; factor = 1.0 }
  in
  let root = mk 0 "iteration" (-1) 0.0 10.0 in
  tr.Phase.spans <-
    [ mk 3 "drive" 1 5.0 9.0; mk 2 "boot" 1 1.0 4.0; mk 1 "policy.fcfs" 0 0.5 9.5; root ];
  expect "self time root" (close (Phase.self_time tr root) 1.0);
  expect "self time leaf" (close (Phase.self_time tr (mk 2 "boot" 1 1.0 4.0)) 3.0);
  expect "leaf coverage" (close (Phase.leaf_coverage tr root) 0.7);
  List.rev !failures
