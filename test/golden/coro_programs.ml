(* Seeded random programs over every Coro operation.

   Each program runs on a fresh 1-node CNK cluster and a fresh 1-node FWK
   cluster. A main thread and up to two pthreads each run their own random
   mix of consume, rdtsc, yield, load/store on a shared anonymous buffer,
   cas and fetch_add, plus faulting accesses: a store into the heap guard
   (CNK) and accesses to an unmapped address, with or without a SIGSEGV
   handler. Every value an operation returns is printed, each rdtsc
   beside the simulation clock read at the same instant, then the node's
   fault list, the events fired and the architectural trace digest. *)

open Bg_engine
open Bg_kabi
module Rt = Bg_rt

let programs = 60
let unmapped = 0xF000_0000
let buf_bytes = 4096

type target = Buf of int | Bad

type op =
  | Consume of int
  | Rdtsc
  | Yield
  | Load of target * int
  | Store of target * int
  | Cas of target * int * int
  | Fetch_add of target * int

let gen_target rng ~align =
  if Rng.int rng 25 = 0 then Bad
  else if align then Buf (8 * Rng.int rng 16)
  else Buf (Rng.int rng 200)

let gen_op rng =
  match Rng.int rng 20 with
  | 0 | 1 | 2 | 3 -> Consume (Rng.int rng 5_000)
  | 4 | 5 | 6 | 7 -> Rdtsc
  | 8 | 9 -> Yield
  | 10 | 11 -> Load (gen_target rng ~align:false, 1 + Rng.int rng 16)
  | 12 | 13 -> Store (gen_target rng ~align:true, Rng.int rng 1_000)
  | 14 | 15 -> Cas (gen_target rng ~align:true, Rng.int rng 3, Rng.int rng 1_000)
  | 16 | 17 | 18 -> Fetch_add (gen_target rng ~align:true, 1 + Rng.int rng 9)
  | _ -> Store (Bad, Rng.int rng 1_000)

let gen_ops rng = List.init (3 + Rng.int rng 20) (fun _ -> gen_op rng)

let hex b =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

(* One thread's program. [bad_store] is the address a faulting store
   goes to: the heap guard on CNK, the unmapped address on FWK. *)
let run_ops ~log ~now ~name ~buf ~bad_store ops =
  let line fmt = Printf.ksprintf (fun s -> log (name ^ ": " ^ s)) fmt in
  let addr = function Buf off -> buf + off | Bad -> unmapped in
  List.iter
    (function
      | Consume n ->
        Coro.consume n;
        line "consume %d" n
      | Rdtsc ->
        let v = Coro.rdtsc () in
        line "rdtsc %d now %d" v (now ())
      | Yield ->
        Coro.yield ();
        line "yield"
      | Load (tg, len) -> line "load %s" (hex (Coro.load ~addr:(addr tg) ~len))
      | Store (tg, v) ->
        let b = Bytes.create 8 in
        Bytes.set_int64_le b 0 (Int64.of_int v);
        let a = match tg with Buf off -> buf + off | Bad -> bad_store () in
        Coro.store ~addr:a b;
        line "store %d" v
      | Cas (tg, expected, desired) ->
        line "cas %b" (Coro.cas ~addr:(addr tg) ~expected ~desired)
      | Fetch_add (tg, d) -> line "fetch_add %d" (Coro.fetch_add ~addr:(addr tg) d))
    ops

(* The whole program: optional handler, shared buffer, workers, main's
   own ops, then join. *)
let program rng ~log ~now ~bad_store () =
  let handler = Rng.bool rng in
  let workers = List.init (Rng.int rng 3) (fun _ -> gen_ops rng) in
  let main_ops = gen_ops rng in
  fun () ->
    if handler then
      Rt.Libc.sigaction ~signo:11 (Some (fun s -> log (Printf.sprintf "handler %d" s)));
    let buf = Rt.Libc.mmap_anon ~length:buf_bytes in
    let hs =
      List.mapi
        (fun i ops ->
          Rt.Pthread.create (fun () ->
              run_ops ~log ~now ~name:(Printf.sprintf "w%d" i) ~buf ~bad_store ops))
        workers
    in
    run_ops ~log ~now ~name:"m" ~buf ~bad_store main_ops;
    List.iter Rt.Pthread.join hs;
    log "m: joined"

let report ~lines ~faults sim outcome =
  List.iter print_endline (List.rev lines);
  print_endline outcome;
  List.iter (fun (tid, reason) -> Printf.printf "fault tid %d: %s\n" tid reason) faults;
  Printf.printf "events %d trace %s\n" (Sim.events_fired sim)
    (Fnv.to_hex (Trace.digest (Sim.trace sim)))

let run_cnk i =
  let rng = Rng.create (Int64.of_int (1000 + i)) in
  let c = Cnk.Cluster.create ~dims:(1, 1, 1) () in
  Cnk.Cluster.boot_all c;
  let sim = Cnk.Cluster.sim c in
  let lines = ref [] in
  let log s = lines := s :: !lines in
  let bad_store () = Rt.Libc.brk_now () + 100 in
  let body = program rng ~log ~now:(fun () -> Sim.now sim) ~bad_store () in
  let outcome =
    match Cnk.Cluster.run_job c (Job.create ~name:"coro" (Image.executable ~name:"coro" body)) with
    | () -> "run: ok"
    | exception e -> "run: " ^ Printexc.to_string e
  in
  Printf.printf "== cnk %d\n" i;
  report ~lines:!lines ~faults:(Cnk.Node.faults (Cnk.Cluster.node c 0)) sim outcome

let run_fwk i =
  let rng = Rng.create (Int64.of_int (1000 + i)) in
  let c = Bg_fwk.Cluster.create ~noise_seed:(Int64.of_int (77 + i)) ~dims:(1, 1, 1) () in
  Bg_fwk.Cluster.boot_all c;
  let sim = Bg_fwk.Cluster.sim c in
  let lines = ref [] in
  let log s = lines := s :: !lines in
  let body = program rng ~log ~now:(fun () -> Sim.now sim) ~bad_store:(fun () -> unmapped) () in
  let outcome =
    match
      Bg_fwk.Cluster.run_job c (Job.create ~name:"coro" (Image.executable ~name:"coro" body))
    with
    | () -> "run: ok"
    | exception e -> "run: " ^ Printexc.to_string e
  in
  Printf.printf "== fwk %d\n" i;
  report ~lines:!lines ~faults:(Bg_fwk.Node.faults (Bg_fwk.Cluster.node c 0)) sim outcome

let () =
  for i = 0 to programs - 1 do
    run_cnk i;
    run_fwk i
  done
