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
    (Fnv.to_hex (Fnv.add_string Fnv.empty "a"));
  Alcotest.(check string) "foobar" "85944171f73967e8"
    (Fnv.to_hex (Fnv.add_string Fnv.empty "foobar"))

let test_fnv_order_sensitive () =
  let h1 = Fnv.add_string (Fnv.add_string Fnv.empty "ab") "cd" in
  let h2 = Fnv.add_string (Fnv.add_string Fnv.empty "cd") "ab" in
  Alcotest.(check bool) "order matters" false (Fnv.equal h1 h2)

let test_fnv_int_int64_consistent () =
  List.iter
    (fun x ->
      let h1 = Fnv.add_int Fnv.empty x in
      let h2 = Fnv.add_int64 Fnv.empty (Int64.of_int x) in
      Alcotest.(check string) (Printf.sprintf "int %d matches int64" x) (Fnv.to_hex h2)
        (Fnv.to_hex h1))
    [ 12345; 0; -1; -12345; 1 lsl 55; -(1 lsl 55); min_int; max_int ]

(* Reference model: FNV-1a written from its definition, one byte at a
   time over an explicit little-endian byte list. *)
let fnv_ref h bytes =
  List.fold_left
    (fun h b -> Int64.mul (Int64.logxor h (Int64.of_int b)) 0x100000001b3L)
    h bytes

let le_bytes x =
  List.init 8 (fun i -> Int64.to_int (Int64.logand (Int64.shift_right_logical x (8 * i)) 0xffL))

let string_bytes s = List.init (String.length s) (fun i -> Char.code s.[i])

let arb_hash_start = QCheck.(oneof [ always Fnv.empty; int64 ])

let arb_any_int =
  QCheck.(
    oneof [ int; neg_int; small_signed_int; always min_int; always max_int; always 0; always (-1) ])

let arb_any_string =
  QCheck.(oneof [ always ""; string; string_of_size Gen.(200 -- 2000) ])

let prop_fnv_int =
  QCheck.Test.make ~name:"fnv add_int agrees with the byte-at-a-time reference" ~count:2000
    QCheck.(pair arb_hash_start arb_any_int)
    (fun (h, x) -> Int64.equal (Fnv.add_int h x) (fnv_ref h (le_bytes (Int64.of_int x))))

let prop_fnv_int64 =
  QCheck.Test.make ~name:"fnv add_int64 agrees with the byte-at-a-time reference" ~count:2000
    QCheck.(pair arb_hash_start (oneof [ int64; always Int64.min_int; always Int64.max_int; always (-1L) ]))
    (fun (h, x) -> Int64.equal (Fnv.add_int64 h x) (fnv_ref h (le_bytes x)))

let prop_fnv_string =
  QCheck.Test.make ~name:"fnv add_string/add_bytes agree with the byte-at-a-time reference"
    ~count:1000
    QCheck.(pair arb_hash_start arb_any_string)
    (fun (h, s) ->
      let expect = fnv_ref h (string_bytes s) in
      Int64.equal (Fnv.add_string h s) expect
      && Int64.equal (Fnv.add_bytes h (Bytes.of_string s)) expect)

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

(* Known answers for the SplitMix64 stream, recorded from the boxed
   [mutable int64] implementation that the unboxed state replaced. *)
let test_rng_known_answers () =
  let first8 seed =
    let r = Rng.create seed in
    Array.to_list (Array.init 8 (fun _ -> Rng.next_int64 r))
  in
  Alcotest.(check (list int64)) "seed 0"
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL; 0xf88bb8a8724c81ecL;
      0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ]
    (first8 0L);
  Alcotest.(check (list int64)) "seed 42"
    [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L;
      0x09bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ]
    (first8 42L);
  let r = Rng.create 7L in
  Alcotest.(check int64) "state before any draw" 7L (Rng.state r);
  let draws n f = Array.to_list (Array.init n (fun _ -> f ())) in
  Alcotest.(check (list int)) "int 1000" [ 621; 951; 336; 50; 918; 76; 949; 295 ]
    (draws 8 (fun () -> Rng.int r 1000));
  Alcotest.(check int64) "state after 8 draws" 0xf1bbcdcbfa53e0afL (Rng.state r);
  Alcotest.(check (list bool)) "bool" [ true; true; true; false; false; false; false; false ]
    (draws 8 (fun () -> Rng.bool r));
  Alcotest.(check int64) "state after 16 draws" 0xe3779b97f4a7c157L (Rng.state r);
  Alcotest.(check (list (float 0.0))) "float 1.0"
    [ 0x1.c25cba00d9a7ap-1; 0x1.4e31a83369cc8p-2; 0x1.3cfd601c99393p-1; 0x1.83bfb4f4bd646p-1 ]
    (draws 4 (fun () -> Rng.float r 1.0));
  Alcotest.(check int64) "state after 20 draws" 0x5c55827df1d1b1abL (Rng.state r);
  Alcotest.(check int64) "seed kept" 7L (Rng.seed r)

(* [int] and [bool] keep the stream position unboxed, so a draw
   allocates nothing in native code. Bytecode boxes every int64, so the
   count is only checked natively. *)
let test_rng_draws_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let r = Rng.create 9L in
    let words f =
      let w0 = Gc.minor_words () in
      f ();
      Gc.minor_words () -. w0
    in
    (* the boxed float [w0] itself is counted; measure it alone *)
    let empty = words (fun () -> ()) in
    let ints = words (fun () -> for _ = 1 to 100_000 do ignore (Rng.int r 1000) done) in
    let bools = words (fun () -> for _ = 1 to 100_000 do ignore (Rng.bool r) done) in
    Alcotest.(check (float 0.0)) "words over 100,000 Rng.int" 0.0 (ints -. empty);
    Alcotest.(check (float 0.0)) "words over 100,000 Rng.bool" 0.0 (bools -. empty)
  end

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

(* The queue's head read as options, to compare against expected values. *)
let peek q =
  let time = Event_queue.next_time q in
  if time = Event_queue.no_event then None else Some time

let pop q = Option.map (fun time -> (time, Event_queue.take q)) (peek q)

let test_queue_time_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:30 "c");
  ignore (Event_queue.add q ~time:10 "a");
  ignore (Event_queue.add q ~time:20 "b");
  let order = List.init 3 (fun _ -> Option.get (pop q)) in
  Alcotest.(check (list (pair int string)))
    "sorted" [ (10, "a"); (20, "b"); (30, "c") ] order

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:5 "first");
  ignore (Event_queue.add q ~time:5 "second");
  ignore (Event_queue.add q ~time:5 "third");
  let order = List.init 3 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] order

let test_queue_cancel () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "dead" in
  ignore (Event_queue.add q ~time:2 "live");
  Event_queue.cancel q h;
  Event_queue.cancel q h;
  check_int "one live" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string))) "live pops" (Some (2, "live"))
    (pop q);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_queue_cancel_after_fire () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "x" in
  ignore (pop q);
  Event_queue.cancel q h;
  (* A later add must not be affected by the stale cancel. *)
  ignore (Event_queue.add q ~time:3 "y");
  check_int "length" 1 (Event_queue.length q)

let test_queue_peek_skips_cancelled () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 "dead" in
  ignore (Event_queue.add q ~time:9 "live");
  Event_queue.cancel q h;
  Alcotest.(check (option int)) "peek" (Some 9) (peek q)

let test_queue_add_rejects_no_event () =
  let q = Event_queue.create () in
  (match Event_queue.add q ~time:Event_queue.no_event "x" with
  | _ -> Alcotest.fail "the empty-head cycle was accepted"
  | exception Invalid_argument _ -> ());
  check_int "nothing queued" 0 (Event_queue.length q);
  check_int "no seq consumed" 0 (Event_queue.next_seq q);
  ignore (Event_queue.add q ~time:(Event_queue.no_event - 1) "last");
  Alcotest.(check (option int)) "the cycle before it is legal"
    (Some (Event_queue.no_event - 1)) (peek q)

let test_queue_take_without_live_event () =
  let q = Event_queue.create () in
  Event_queue.cancel q (Event_queue.add q ~time:4 "dead");
  match Event_queue.take q with
  | _ -> Alcotest.fail "took a cancelled event"
  | exception Invalid_argument _ -> check_int "drained" 0 (Event_queue.length q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> ignore (Event_queue.add q ~time:t t)) times;
      let rec drain last acc =
        match pop q with
        | None -> List.rev acc
        | Some (t, _) ->
          if t < last then failwith "out of order";
          drain t (t :: acc)
      in
      let popped = drain 0 [] in
      List.length popped = List.length times)

(* ------------------------------------------------------------------ *)
(* Event_queue against a reference model *)

(* The model is the list of live events sorted on (time, seq); an event's
   payload is its seq. Add times are drawn at or after the last head taken,
   as [Sim] schedules them, so the heads taken must come out in strictly
   increasing (time, seq) order: FIFO within a cycle. *)

type queue_op = Add of int | Cancel of int | Cancel_head | Peek | Take | Take_only | Live

let pp_queue_op = function
  | Add d -> Printf.sprintf "Add +%d" d
  | Cancel i -> Printf.sprintf "Cancel #%d" i
  | Cancel_head -> "Cancel_head"
  | Peek -> "Peek"
  | Take -> "Take"
  | Take_only -> "Take_only"
  | Live -> "Live"

let arb_queue_ops =
  let open QCheck.Gen in
  let delta = frequency [ (3, return 0); (4, int_range 1 8); (1, int_range 9 1_000) ] in
  let op =
    frequency
      [
        (5, map (fun d -> Add d) delta);
        (2, map (fun i -> Cancel i) nat);
        (1, return Cancel_head);
        (1, return Peek);
        (2, return Take);
        (1, return Take_only);
        (1, return Live);
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(list pp_queue_op)
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 0 120) op)

let queue_model_agrees ops =
  let q = Event_queue.create () in
  let handles = Hashtbl.create 64 in
  let model = ref [] and issued = ref 0 and last = ref (0, -1) in
  let fail fmt = Printf.ksprintf failwith fmt in
  let check_live () = if Event_queue.live q <> !model then fail "live disagrees" in
  let taken (time, seq) =
    if compare (time, seq) !last <= 0 then
      fail "(%d, %d) taken after (%d, %d)" time seq (fst !last) (snd !last);
    last := (time, seq);
    model := List.tl !model
  in
  let step op =
    match op with
    | Add d ->
      let time = fst !last + d and seq = !issued in
      Hashtbl.replace handles seq (Event_queue.add q ~time seq);
      incr issued;
      model := List.merge compare !model [ (time, seq) ]
    | Cancel i ->
      if !issued > 0 then begin
        let seq = i mod !issued in
        Event_queue.cancel q (Hashtbl.find handles seq);
        model := List.filter (fun (_, s) -> s <> seq) !model
      end
    | Cancel_head -> (
      match !model with
      | [] -> ()
      | (_, seq) :: rest ->
        Event_queue.cancel q (Hashtbl.find handles seq);
        model := rest)
    | Peek ->
      let expect = match !model with [] -> None | (t, _) :: _ -> Some t in
      if peek q <> expect then fail "peek disagrees with the model"
    | Take -> (
      match (pop q, !model) with
      | None, [] -> ()
      | Some (time, seq), head :: _ when (time, seq) = head -> taken head
      | Some (time, seq), _ -> fail "took (%d, %d), not the model's head" time seq
      | None, _ :: _ -> fail "queue empty but the model is not")
    | Take_only -> (
      (* no head read first: [take] must drop cancelled heads itself *)
      match (Event_queue.take q, !model) with
      | seq, ((_, s) as head) :: _ when seq = s -> taken head
      | seq, _ -> fail "took %d, not the model's head" seq
      | exception Invalid_argument _ -> if !model <> [] then fail "take refused a live event")
    | Live -> check_live ()
  in
  List.iter
    (fun op ->
      step op;
      let n = List.length !model in
      if Event_queue.length q <> n then fail "length %d, model %d" (Event_queue.length q) n;
      if Event_queue.is_empty q <> (n = 0) then fail "is_empty disagrees";
      if Event_queue.next_seq q <> !issued then fail "next_seq disagrees")
    ops;
  check_live ();
  true

let prop_queue_model =
  QCheck.Test.make ~name:"event_queue agrees with a sorted-list model"
    ~count:10_000 ~long_factor:10 arb_queue_ops queue_model_agrees

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

(* Cancelled entries stay in the heap until they reach the top; none of
   these may leak into what the run loop fires, counts or reports. *)

let expect_outcome name want got =
  let show = function
    | Sim.Completed -> "Completed"
    | Sim.Reached_limit -> "Reached_limit"
    | Sim.Halted r -> "Halted " ^ r
  in
  Alcotest.(check string) name (show want) (show got)

let test_sim_cancelled_head_below_until () =
  let sim = Sim.create () in
  let h = Sim.schedule_at sim 10 (fun () -> Alcotest.fail "cancelled event fired") in
  ignore (Sim.schedule_at sim 100 ignore);
  Sim.cancel sim h;
  expect_outcome "stops at until" Sim.Reached_limit (Sim.run ~until:50 sim);
  check_int "nothing fired" 0 (Sim.events_fired sim)

let test_sim_cancelled_head_not_counted () =
  let sim = Sim.create () in
  let log = ref [] in
  let h = Sim.schedule_at sim 1 (fun () -> Alcotest.fail "cancelled event fired") in
  ignore (Sim.schedule_at sim 2 (fun () -> log := "b" :: !log));
  ignore (Sim.schedule_at sim 3 (fun () -> log := "c" :: !log));
  Sim.cancel sim h;
  expect_outcome "budget of one" Sim.Reached_limit (Sim.run ~max_events:1 sim);
  Alcotest.(check (list string)) "the live head fired" [ "b" ] !log;
  check_int "events_fired" 1 (Sim.events_fired sim);
  check_int "clock at the fired event" 2 (Sim.now sim)

let test_sim_until_past_cancelled_entry () =
  let sim = Sim.create () in
  let h = Sim.schedule_at sim 5 ignore in
  ignore (Sim.schedule_at sim 900 ignore);
  Sim.cancel sim h;
  ignore (Sim.run ~until:400 sim);
  check_int "clock at until" 400 (Sim.now sim);
  check_int "live event kept" 1 (Sim.pending sim)

let test_sim_step_only_cancelled () =
  let sim = Sim.create () in
  let hs = List.init 3 (fun i -> Sim.schedule_at sim (i + 1) (fun () -> Alcotest.fail "fired")) in
  List.iter (Sim.cancel sim) hs;
  Alcotest.(check bool) "step finds nothing" false (Sim.step sim);
  check_int "events_fired" 0 (Sim.events_fired sim);
  check_int "clock unmoved" 0 (Sim.now sim)

let test_sim_pending_excludes_cancelled () =
  let sim = Sim.create () in
  let a = Sim.schedule_at sim 1 ignore in
  let b = Sim.schedule_at sim 2 ignore in
  ignore (Sim.schedule_at sim 3 ignore);
  check_int "three scheduled" 3 (Sim.pending sim);
  Sim.cancel sim b;
  Sim.cancel sim b;
  check_int "cancel counts once" 2 (Sim.pending sim);
  Alcotest.(check bool) "fires a" true (Sim.step sim);
  Sim.cancel sim a;
  check_int "cancel after fire is a no-op" 1 (Sim.pending sim);
  expect_outcome "drains" Sim.Completed (Sim.run sim);
  check_int "empty" 0 (Sim.pending sim);
  check_int "two fired" 2 (Sim.events_fired sim)

let test_sim_zero_budget () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim 7 (fun () -> Alcotest.fail "fired with no budget"));
  expect_outcome "no budget" Sim.Reached_limit (Sim.run ~max_events:0 sim);
  check_int "nothing fired" 0 (Sim.events_fired sim);
  check_int "clock unmoved" 0 (Sim.now sim);
  check_int "event still pending" 1 (Sim.pending sim)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let expect_invalid name ~naming f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument msg ->
    List.iter
      (fun cycle ->
        if not (contains msg cycle) then Alcotest.failf "%s: %S does not name %s" name msg cycle)
      naming

let sim_at_cycle clock =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim clock ignore);
  ignore (Sim.run sim);
  sim

let test_sim_schedule_at_past () =
  let sim = sim_at_cycle 1234 in
  expect_invalid "schedule_at" ~naming:[ "567"; "1234" ] (fun () ->
      Sim.schedule_at sim 567 ignore);
  check_int "nothing scheduled" 0 (Sim.pending sim)

let test_sim_schedule_in_negative () =
  let sim = sim_at_cycle 1234 in
  expect_invalid "schedule_in" ~naming:[ "1227"; "1234" ] (fun () ->
      Sim.schedule_in sim (-7) ignore);
  check_int "nothing scheduled" 0 (Sim.pending sim)

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

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fnv_int;
      prop_fnv_int64;
      prop_fnv_string;
      prop_queue_sorted;
      prop_queue_model;
      prop_percentile_bounds;
    ]

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
    Alcotest.test_case "rng: known answers" `Quick test_rng_known_answers;
    Alcotest.test_case "rng: int and bool draws allocate nothing" `Quick
      test_rng_draws_allocate_nothing;
    Alcotest.test_case "cycles: conversions" `Quick test_cycles_roundtrip;
    Alcotest.test_case "cycles: pp units" `Quick test_cycles_pp_units;
    Alcotest.test_case "sim: max events" `Quick test_sim_max_events;
    Alcotest.test_case "queue: time order" `Quick test_queue_time_order;
    Alcotest.test_case "queue: fifo on ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue: cancel" `Quick test_queue_cancel;
    Alcotest.test_case "queue: cancel after fire" `Quick test_queue_cancel_after_fire;
    Alcotest.test_case "queue: peek skips cancelled" `Quick test_queue_peek_skips_cancelled;
    Alcotest.test_case "queue: add rejects the empty-head cycle" `Quick test_queue_add_rejects_no_event;
    Alcotest.test_case "queue: take without a live event" `Quick test_queue_take_without_live_event;
    Alcotest.test_case "sim: ordering and clock" `Quick test_sim_ordering_and_clock;
    Alcotest.test_case "sim: schedule from event" `Quick test_sim_schedule_from_event;
    Alcotest.test_case "sim: until limit" `Quick test_sim_until;
    Alcotest.test_case "sim: halt" `Quick test_sim_halt;
    Alcotest.test_case "sim: cancelled head below until" `Quick test_sim_cancelled_head_below_until;
    Alcotest.test_case "sim: cancelled head not counted" `Quick test_sim_cancelled_head_not_counted;
    Alcotest.test_case "sim: until past a cancelled entry" `Quick test_sim_until_past_cancelled_entry;
    Alcotest.test_case "sim: step over only cancelled" `Quick test_sim_step_only_cancelled;
    Alcotest.test_case "sim: pending excludes cancelled" `Quick test_sim_pending_excludes_cancelled;
    Alcotest.test_case "sim: zero event budget" `Quick test_sim_zero_budget;
    Alcotest.test_case "sim: schedule_at in the past" `Quick test_sim_schedule_at_past;
    Alcotest.test_case "sim: schedule_in negative delay" `Quick test_sim_schedule_in_negative;
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
