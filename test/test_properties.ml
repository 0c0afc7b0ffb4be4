(* Property-based suites: a model-checked filesystem (random op sequences
   against a pure reference model), allocator conservation invariants
   (buddy + mmap tracker), and torus timing consistency. *)

open Bg_kabi
module Fs = Bg_cio.Fs

(* ------------------------------------------------------------------ *)
(* Model-based filesystem checking: flat namespace of files under /,
   reference model = association list name -> contents. *)

type fs_op =
  | Create of string * string   (* name, contents *)
  | Append of string * string
  | ReadBack of string
  | Unlink of string
  | RenameTo of string * string

let op_gen =
  let open QCheck.Gen in
  let name = map (fun i -> Printf.sprintf "f%d" i) (0 -- 5) in
  let content = string_size ~gen:(char_range 'a' 'z') (1 -- 20) in
  frequency
    [
      (3, map2 (fun n c -> Create (n, c)) name content);
      (3, map2 (fun n c -> Append (n, c)) name content);
      (3, map (fun n -> ReadBack n) name);
      (2, map (fun n -> Unlink n) name);
      (1, map2 (fun a b -> RenameTo (a, b)) name name);
    ]

let pp_op = function
  | Create (n, c) -> Printf.sprintf "create %s %S" n c
  | Append (n, c) -> Printf.sprintf "append %s %S" n c
  | ReadBack n -> Printf.sprintf "read %s" n
  | Unlink n -> Printf.sprintf "unlink %s" n
  | RenameTo (a, b) -> Printf.sprintf "rename %s %s" a b

(* Apply one op to both systems; return false on observable divergence. *)
let apply_both fs model op =
  let find n = List.assoc_opt n !model in
  match op with
  | Create (n, c) -> (
    match Fs.open_file fs ~cwd:"/" n ~flags:Sysreq.o_create_trunc ~mode:0o644 with
    | Error _ -> false
    | Ok inode -> (
      match Fs.write fs inode ~offset:0 (Bytes.of_string c) with
      | Error _ -> false
      | Ok _ ->
        model := (n, c) :: List.remove_assoc n !model;
        true))
  | Append (n, c) -> (
    match find n with
    | None -> (
      (* appending to a missing file without O_CREAT must fail the same way *)
      match Fs.resolve fs ~cwd:"/" n with Ok _ -> false | Error _ -> true)
    | Some existing -> (
      match Fs.resolve fs ~cwd:"/" n with
      | Error _ -> false
      | Ok inode -> (
        match Fs.write fs inode ~offset:(String.length existing) (Bytes.of_string c) with
        | Error _ -> false
        | Ok _ ->
          model := (n, existing ^ c) :: List.remove_assoc n !model;
          true)))
  | ReadBack n -> (
    match (find n, Fs.resolve fs ~cwd:"/" n) with
    | None, Error Errno.ENOENT -> true
    | None, _ -> false
    | Some expected, Ok inode -> (
      match Fs.read fs inode ~offset:0 ~len:(String.length expected + 10) with
      | Ok b -> Bytes.to_string b = expected
      | Error _ -> false)
    | Some _, Error _ -> false)
  | Unlink n -> (
    match (find n, Fs.unlink fs ~cwd:"/" n) with
    | None, Error Errno.ENOENT -> true
    | None, _ -> false
    | Some _, Ok () ->
      model := List.remove_assoc n !model;
      true
    | Some _, Error _ -> false)
  | RenameTo (a, b) -> (
    match (find a, Fs.rename fs ~cwd:"/" ~src:a ~dst:b) with
    | None, Error _ -> true
    | None, Ok () -> false
    | Some contents, Ok () ->
      model := (b, contents) :: List.remove_assoc b (List.remove_assoc a !model);
      true
    | Some _, Error _ -> false)

let prop_fs_matches_model =
  QCheck.Test.make ~name:"filesystem agrees with a reference model" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       (QCheck.Gen.list_size (QCheck.Gen.( -- ) 1 40) op_gen))
    (fun ops ->
      let fs = Fs.create () in
      let model = ref [] in
      List.for_all (apply_both fs model) ops)

(* ------------------------------------------------------------------ *)
(* Buddy allocator conservation *)

type buddy_op = Alloc of int | FreeNth of int

let buddy_ops_gen =
  let open QCheck.Gen in
  list_size (1 -- 60)
    (frequency
       [ (3, map (fun o -> Alloc o) (12 -- 18)); (2, map (fun i -> FreeNth i) (0 -- 20)) ])

let prop_buddy_conservation =
  QCheck.Test.make ~name:"buddy: free + live bytes are conserved; full coalesce" ~count:200
    (QCheck.make buddy_ops_gen)
    (fun ops ->
      let total = 1 lsl 22 in
      let b = Bg_fwk.Buddy.create ~bytes:total in
      let live = ref [] in
      List.iter
        (fun op ->
          match op with
          | Alloc order -> (
            match Bg_fwk.Buddy.alloc b ~order with
            | Ok addr -> live := (addr, order) :: !live
            | Error _ -> ())
          | FreeNth i -> (
            match List.nth_opt !live i with
            | Some (addr, order) ->
              Bg_fwk.Buddy.free b ~addr ~order;
              live := List.filteri (fun j _ -> j <> i) !live
            | None -> ()))
        ops;
      let live_bytes = List.fold_left (fun acc (_, o) -> acc + (1 lsl o)) 0 !live in
      let conserved = Bg_fwk.Buddy.free_bytes b + live_bytes = total in
      (* live blocks must be disjoint *)
      let sorted = List.sort compare (List.map (fun (a, o) -> (a, 1 lsl o)) !live) in
      let rec disjoint = function
        | (a, la) :: ((bb, _) :: _ as rest) -> a + la <= bb && disjoint rest
        | _ -> true
      in
      (* free the rest: memory must fully coalesce *)
      List.iter (fun (addr, order) -> Bg_fwk.Buddy.free b ~addr ~order) !live;
      let coalesced = Bg_fwk.Buddy.largest_free_order b = Some 22 in
      conserved && disjoint sorted && coalesced)

(* ------------------------------------------------------------------ *)
(* Mmap tracker invariants under random op sequences *)

type mt_op = Map of int | UnmapNth of int | Grow of int

let mt_ops_gen =
  let open QCheck.Gen in
  list_size (1 -- 50)
    (frequency
       [
         (3, map (fun n -> Map (n * 4096)) (1 -- 600));
         (2, map (fun i -> UnmapNth i) (0 -- 15));
         (1, map (fun n -> Grow (n * 1024)) (1 -- 64));
       ])

let prop_tracker_invariants =
  QCheck.Test.make ~name:"mmap tracker: disjoint, in-range, brk below allocations"
    ~count:200 (QCheck.make mt_ops_gen)
    (fun ops ->
      let mb = 1024 * 1024 in
      let base = 16 * mb and bytes = 128 * mb in
      let t = Cnk.Mmap_tracker.create ~base ~bytes ~main_stack_bytes:(4 * mb) in
      let live = ref [] in
      List.iter
        (fun op ->
          match op with
          | Map len -> (
            match Cnk.Mmap_tracker.mmap t ~length:len with
            | Ok addr -> live := (addr, len) :: !live
            | Error _ -> ())
          | UnmapNth i -> (
            match List.nth_opt !live i with
            | Some (addr, len) ->
              (match Cnk.Mmap_tracker.munmap t ~addr ~length:len with
              | Ok () -> live := List.filteri (fun j _ -> j <> i) !live
              | Error _ -> ())
            | None -> ())
          | Grow delta -> (
            let cur = Cnk.Mmap_tracker.heap_end t in
            match Cnk.Mmap_tracker.brk t (Some (cur + delta)) with
            | Ok _ | Error _ -> ()))
        ops;
      let brk = Cnk.Mmap_tracker.heap_end t in
      let stack_lo = Cnk.Mmap_tracker.main_stack_lo t in
      let in_range (a, l) = a >= base && a + l <= stack_lo in
      let below_brk (a, _) = a >= brk in
      List.for_all in_range !live
      && List.for_all below_brk !live
      && brk >= base
      &&
      let rounded =
        List.sort compare
          (List.map (fun (a, l) -> (a, (l + mb - 1) / mb * mb)) !live)
      in
      let rec disjoint = function
        | (a, la) :: ((b, _) :: _ as rest) -> a + la <= b && disjoint rest
        | _ -> true
      in
      disjoint rounded)

(* ------------------------------------------------------------------ *)
(* Mapping: random job shapes either fit cleanly or fail cleanly *)

let prop_mapping_random_configs =
  QCheck.Test.make ~name:"mapping: any accepted config satisfies the invariants" ~count:150
    QCheck.(
      quad (int_range 1 64)  (* text MB *)
        (int_range 0 64)     (* data MB *)
        (int_range 0 128)    (* shared MB *)
        (int_range 0 2))     (* mode index *)
    (fun (text_mb, data_mb, shared_mb, mode_i) ->
      let mb = 1024 * 1024 in
      let nprocs = [| 1; 2; 4 |].(mode_i) in
      let cfg =
        {
          Cnk.Mapping.default_config with
          Cnk.Mapping.nprocs;
          text_bytes = text_mb * mb;
          data_bytes = data_mb * mb;
          shared_bytes = shared_mb * mb;
        }
      in
      match Cnk.Mapping.compute cfg with
      | Error _ -> true (* clean refusal is always acceptable *)
      | Ok t ->
        t.Cnk.Mapping.entries_per_core <= cfg.Cnk.Mapping.tlb_budget
        && Array.length t.Cnk.Mapping.procs = nprocs
        && Array.for_all
             (fun pm ->
               List.for_all
                 (fun (r : Sysreq.region) ->
                   Bg_hw.Page_size.aligned r.Sysreq.page r.Sysreq.vaddr
                   && Bg_hw.Page_size.aligned r.Sysreq.page r.Sysreq.paddr
                   && r.Sysreq.paddr + r.Sysreq.bytes <= cfg.Cnk.Mapping.dram_bytes)
                 pm.Cnk.Mapping.regions
               && pm.Cnk.Mapping.heap_stack_bytes >= cfg.Cnk.Mapping.main_stack_bytes)
             t.Cnk.Mapping.procs)

(* ------------------------------------------------------------------ *)
(* Scheduler stress: random queues always drain, partitions conserved *)

let prop_scheduler_stress =
  QCheck.Test.make ~name:"scheduler: random job mixes drain; every node runs its job"
    ~count:25
    QCheck.(
      list_of_size Gen.(1 -- 8) (pair (int_range 1 4) (int_range 1 40)))
    (fun jobs ->
      let cluster = Cnk.Cluster.create ~dims:(4, 1, 1) ~seed:5L () in
      Cnk.Cluster.boot_all cluster;
      let s = Bg_control.Scheduler.create ~backfill:true cluster in
      let ran = ref 0 in
      let expected_ran = ref 0 in
      let ids =
        List.mapi
          (fun i (width, work) ->
            expected_ran := !expected_ran + width;
            Bg_control.Scheduler.submit s
              ~shape:(width, 1, 1)
              (Job.create
                 ~name:(Printf.sprintf "j%d" i)
                 (Image.executable ~name:"j" (fun () ->
                      Coro.consume (work * 10_000);
                      incr ran))))
          jobs
      in
      Bg_control.Scheduler.drain s;
      !ran = !expected_ran
      && List.for_all
           (fun id ->
             match Bg_control.Scheduler.state s id with
             | Bg_control.Scheduler.Completed _ -> true
             | _ -> false)
           ids)

(* ------------------------------------------------------------------ *)
(* Torus: estimate equals measured arrival on an idle network *)

let prop_torus_estimate_exact =
  QCheck.Test.make ~name:"torus: contention-free estimate matches the event timing"
    ~count:100
    QCheck.(triple (int_bound 63) (int_bound 63) (int_bound 100_000))
    (fun (src, dst, bytes) ->
      let sim = Bg_engine.Sim.create () in
      let torus = Bg_hw.Torus.create sim ~dims:(4, 4, 4) () in
      let arrived = ref (-1) in
      Bg_hw.Torus.transfer torus ~src ~dst ~bytes
        ~on_arrival:(fun ~arrival_cycle -> arrived := arrival_cycle)
        ();
      ignore (Bg_engine.Sim.run sim);
      !arrived = Bg_hw.Torus.estimate_cycles torus ~src ~dst ~bytes)

(* ------------------------------------------------------------------ *)
(* Proto: request sizes are what the wire is charged for *)

let prop_proto_write_size_linear =
  QCheck.Test.make ~name:"proto: encoded write size = header + payload + framing"
    ~count:100
    QCheck.(int_bound 10_000)
    (fun n ->
      let hdr = { Bg_cio.Proto.rank = 1; pid = 1; tid = 1 } in
      let base =
        Bytes.length
          (Bg_cio.Proto.encode_request hdr (Sysreq.Write { fd = 3; data = Bytes.empty }))
      in
      let full =
        Bytes.length
          (Bg_cio.Proto.encode_request hdr (Sysreq.Write { fd = 3; data = Bytes.create n }))
      in
      full = base + n)

(* ------------------------------------------------------------------ *)
(* Differential kernel testing: the paper's SSIV.A claim is that
   function-shipped calls "produce the same result codes" as local Linux
   execution. Run the same random file-op program on CNK (shipped to
   CIOD) and on the FWK (local VFS) and require identical observable
   reply sequences. *)

type dfo =
  | D_open of string
  | D_write of int * string   (* nth open fd, payload *)
  | D_read of int * int
  | D_seek of int * int
  | D_close of int
  | D_mkdir of string
  | D_unlink of string
  | D_readdir

let dfo_gen =
  let open QCheck.Gen in
  let name = map (fun i -> Printf.sprintf "f%d" i) (0 -- 3) in
  frequency
    [
      (3, map (fun n -> D_open n) name);
      (3, map2 (fun i s -> D_write (i, s)) (0 -- 3) (string_size ~gen:(char_range 'a' 'z') (1 -- 12)));
      (3, map2 (fun i l -> D_read (i, l)) (0 -- 3) (0 -- 20));
      (2, map2 (fun i o -> D_seek (i, o)) (0 -- 3) (0 -- 30));
      (1, map (fun i -> D_close i) (0 -- 3));
      (1, map (fun n -> D_mkdir n) name);
      (1, map (fun n -> D_unlink n) name);
      (1, return D_readdir);
    ]

(* Execute the op list as user code; normalize every reply to a string.
   Fds are tracked positionally so both kernels see identical calls. *)
let run_file_program ops syscall_results () =
  let fds = Array.make 4 (-1) in
  let note r = syscall_results := r :: !syscall_results in
  let norm = function
    | Sysreq.R_unit -> "ok"
    | Sysreq.R_int _ -> "int"  (* fd numbers may differ; arity does not *)
    | Sysreq.R_bytes b -> "bytes:" ^ Bytes.to_string b
    | Sysreq.R_names ns -> "names:" ^ String.concat "," ns
    | Sysreq.R_err e -> "err:" ^ Errno.to_string e
    | _ -> "other"
  in
  List.iter
    (fun op ->
      match op with
      | D_open name ->
        let reply =
          Coro.syscall
            (Sysreq.Open { path = name; flags = { Sysreq.o_rdwr with Sysreq.creat = true }; mode = 0o644 })
        in
        (match reply with
        | Sysreq.R_int fd ->
          let slot = ref (-1) in
          Array.iteri (fun i v -> if !slot < 0 && v < 0 then slot := i else ignore v) fds;
          if !slot >= 0 then fds.(!slot) <- fd
        | _ -> ());
        note (norm reply)
      | D_write (i, s) ->
        note (norm (Coro.syscall (Sysreq.Write { fd = fds.(i); data = Bytes.of_string s })))
      | D_read (i, l) -> note (norm (Coro.syscall (Sysreq.Read { fd = fds.(i); len = l })))
      | D_seek (i, o) ->
        note
          (norm
             (Coro.syscall (Sysreq.Lseek { fd = fds.(i); offset = o; whence = Sysreq.Seek_set })))
      | D_close i ->
        note (norm (Coro.syscall (Sysreq.Close fds.(i))));
        if fds.(i) >= 0 then fds.(i) <- -1
      | D_mkdir name -> note (norm (Coro.syscall (Sysreq.Mkdir { path = name; mode = 0o755 })))
      | D_unlink name -> note (norm (Coro.syscall (Sysreq.Unlink name)))
      | D_readdir -> note (norm (Coro.syscall (Sysreq.Readdir "."))))
    ops

let prop_shipped_matches_local =
  QCheck.Test.make ~name:"function-shipped I/O = local Linux I/O, result for result"
    ~count:60
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.( -- ) 1 25) dfo_gen))
    (fun ops ->
      (* CNK: every call crosses the collective network to an ioproxy *)
      let cnk_results = ref [] in
      let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) () in
      Cnk.Cluster.boot_all cluster;
      Cnk.Cluster.run_job cluster
        (Job.create ~name:"d"
           (Image.executable ~name:"d" (run_file_program ops cnk_results)));
      (* FWK: the same ops against the local VFS *)
      let fwk_results = ref [] in
      let cluster = Bg_fwk.Cluster.create ~noise_seed:1L ~dims:(1, 1, 1) () in
      Bg_fwk.Cluster.boot_all cluster;
      Bg_fwk.Cluster.run_job cluster
        (Job.create ~name:"d" (Image.executable ~name:"d" (run_file_program ops fwk_results)));
      !cnk_results = !fwk_results)

(* ------------------------------------------------------------------ *)
(* Chaos: random recoverable faults must not corrupt a computation *)

let prop_chaos_faults_preserve_halo =
  QCheck.Test.make ~name:"halo survives link breaks + parity errors intact" ~count:15
    QCheck.(pair (int_bound 1000) (list_of_size Gen.(0 -- 3) (pair (int_bound 3) (int_bound 5))))
    (fun (seed_base, breaks) ->
      let ranks = 4 in
      let cluster =
        Cnk.Cluster.create ~dims:(ranks, 1, 1) ~seed:(Int64.of_int (seed_base + 1)) ()
      in
      Cnk.Cluster.boot_all cluster;
      let machine = Cnk.Cluster.machine cluster in
      let fabric = Bg_msg.Dcmf.make_fabric machine in
      for r = 0 to ranks - 1 do
        ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
      done;
      (* register parity handlers, then run the halo *)
      let entry, collect =
        Bg_apps.Halo.program ~fabric ~cells_per_rank:8 ~iterations:6
          ~compute_cycles_per_cell:500 ()
      in
      let image =
        Image.executable ~name:"chaos" (fun () ->
            Sysreq.expect_unit
              (Coro.syscall (Sysreq.Sigaction { signo = 7; handler = Some (fun _ -> ()) }));
            entry ())
      in
      (* chaos schedule: break one link direction at a time (reroutable),
         repair it, and fire parity errors *)
      let sim = Cnk.Cluster.sim cluster in
      List.iteri
        (fun i (rank, dir_mod) ->
          let dir = dir_mod mod 2 in
          let at = 2_200_000 + (i * 40_000) in
          ignore
            (Bg_engine.Sim.schedule_at sim at (fun () ->
                 Bg_hw.Torus.set_link_broken machine.Machine.torus ~rank ~dir true));
          ignore
            (Bg_engine.Sim.schedule_at sim (at + 30_000) (fun () ->
                 Bg_hw.Torus.set_link_broken machine.Machine.torus ~rank ~dir false));
          ignore
            (Bg_engine.Sim.schedule_at sim (at + 10_000) (fun () ->
                 ignore
                   (Cnk.Node.inject_l1_parity_error (Cnk.Cluster.node cluster rank)
                      ~core:0))))
        breaks;
      Cnk.Cluster.run_job cluster (Job.create ~name:"chaos" image);
      let r = collect () in
      let expected =
        Bg_apps.Halo.reference_checksum ~ranks ~cells_per_rank:8 ~iterations:6
      in
      let no_fatal =
        Array.for_all (fun n -> Cnk.Node.faults n = []) (Cnk.Cluster.nodes cluster)
      in
      no_fatal && r.Bg_apps.Halo.checksum = expected)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fs_matches_model;
      prop_buddy_conservation;
      prop_tracker_invariants;
      prop_torus_estimate_exact;
      prop_proto_write_size_linear;
      prop_chaos_faults_preserve_halo;
      prop_shipped_matches_local;
      prop_mapping_random_configs;
      prop_scheduler_stress;
    ]
