open Bg_engine
open Bg_msg

(* The Table I harness: the same two-rank messaging sweep run on three
   cells — CNK with the DMA unit memory-mapped into user space, the FWK
   with every injection and poll trapped through Dma_inject/Dma_poll
   syscalls (tick scheduler disabled: the quiet baseline), and the same
   kernel-mediated path with the 1 kHz tick enabled. Rank 0 sends to its
   torus neighbor rank 1; one-way latencies are receiver-timestamped via
   rdtsc against a shared send-timestamp mailbox. *)

type cell = Cnk_user | Fwk_quiet | Fwk_tick

let cell_name = function
  | Cnk_user -> "cnk_user"
  | Fwk_quiet -> "fwk_kernel"
  | Fwk_tick -> "fwk_kernel_tick"

let layers = [ "dcmf_put"; "dcmf_eager"; "dcmf_rndv" ]

type result = {
  cell : cell;
  sizes : int list;
  reps : int;
  latency : (string * int * int) list;    (* (layer, bytes, cycles over reps) *)
  bandwidth : (string * int * int) list;  (* (mode, bytes, transfer cycles) *)
  descriptors : int;                      (* rank 0 injections over the run *)
  wall : int;                             (* rank 0 cycles, whole sweep *)
}

let default_sizes = [ 32; 256; 1024; 4096; 16384 ]

let default_reps = 12
(* Enough repetitions that the FWK sweep spans several 1 kHz tick
   periods — a single pass fits inside one tick interval and would never
   observe the preemption the Fwk_tick cell exists to measure. *)

let bw_bytes = 1 lsl 20

(* --- the per-rank program ------------------------------------------- *)

(* Runs identically on every cell; only the ctx's fabric path differs.
   [record layer bytes cycles] lands in host arrays — measurement
   metadata, free of simulated cost — accumulating over [reps]. *)
let bench_program ~sizes ~reps ~send_t0 ~record r ctx =
  let barrier () = Dcmf.barrier_via_hw ctx in
  barrier ();
  let t_sweep = Coro.rdtsc () in
  List.iteri
    (fun i size ->
      let data = Bytes.make size 'x' in
      if r = 1 then Dcmf.register ctx ~tag:(100 + i) ~bytes:size;
      barrier ();
      for _ = 1 to reps do
        (* one-sided put: completion counter hits zero at remote arrival,
           so the sender alone can stamp the one-way latency *)
        if r = 0 then begin
          let t0 = Coro.rdtsc () in
          let h = Dcmf.put ctx ~dst:1 ~tag:(100 + i) ~data in
          Dcmf.wait h;
          record "dcmf_put" size (Dcmf.completion_cycle h - t0)
        end;
        barrier ();
        (* two-sided eager: receiver stamps when the payload is drained
           and dispatched out of the reception FIFO *)
        if r = 0 then begin
          send_t0 := Coro.rdtsc ();
          let h = Dcmf.send_eager ctx ~dst:1 ~tag:(200 + i) ~data in
          Dcmf.wait h
        end
        else begin
          let rec spin () =
            match Dcmf.try_recv_eager ctx ~tag:(200 + i) with
            | Some _ -> record "dcmf_eager" size (Coro.rdtsc () - !send_t0)
            | None ->
              Coro.consume 100;
              spin ()
          in
          spin ()
        end;
        barrier ();
        (* rendezvous: RTS out, receiver rDMA-gets the payload, FIN back *)
        if r = 0 then begin
          send_t0 := Coro.rdtsc ();
          Dcmf.send_rendezvous ctx ~dst:1 ~tag:(300 + i) ~data
        end
        else begin
          let got = Dcmf.recv_rendezvous ctx ~src:0 ~tag:(300 + i) in
          record "dcmf_rndv" size (Coro.rdtsc () - !send_t0);
          assert (Bytes.length got = size)
        end;
        barrier ()
      done)
    sizes;
  (* bulk bandwidth: one contiguous descriptor vs the 4 KiB-fragment
     bounce-copy path (Fig 8's contrast) *)
  if r = 0 then begin
    let t0 = Coro.rdtsc () in
    let h = Dcmf.put_large ctx ~dst:1 ~tag:99 ~bytes:bw_bytes ~contiguous:true in
    Dcmf.wait h;
    record "bw_contiguous" bw_bytes (Dcmf.completion_cycle h - t0)
  end;
  barrier ();
  if r = 0 then begin
    let t0 = Coro.rdtsc () in
    let h = Dcmf.put_large ctx ~dst:1 ~tag:98 ~bytes:bw_bytes ~contiguous:false in
    Dcmf.wait h;
    record "bw_fragmented" bw_bytes (Dcmf.completion_cycle h - t0)
  end;
  barrier ();
  (* whole-sweep wall time on rank 0: every tick preemption the kernel
     charges anywhere in the sweep lands here, so the quiet/tick gap is
     robust to the sample-level interleaving wobble of the per-message
     latencies *)
  if r = 0 then record "wall" 0 (Coro.rdtsc () - t_sweep)

(* --- cells ----------------------------------------------------------- *)

let collect cell sizes reps out descriptors =
  let latency =
    List.concat_map
      (fun layer ->
        List.filter_map
          (fun size ->
            match Hashtbl.find_opt out (layer, size) with
            | Some cy -> Some (layer, size, cy)
            | None -> None)
          sizes)
      layers
  in
  let bandwidth =
    List.filter_map
      (fun mode ->
        match Hashtbl.find_opt out (mode, bw_bytes) with
        | Some cy -> Some (mode, bw_bytes, cy)
        | None -> None)
      [ "bw_contiguous"; "bw_fragmented" ]
  in
  let wall = Option.value ~default:0 (Hashtbl.find_opt out ("wall", 0)) in
  { cell; sizes; reps; latency; bandwidth; descriptors; wall }

let run_cnk ?(sizes = default_sizes) ?(reps = default_reps) () =
  let cluster = Cnk.Cluster.create ~dims:(2, 1, 1) () in
  Cnk.Cluster.boot_all cluster;
  let fabric =
    Dcmf.make_fabric ~path:Dcmf.Dma_user (Cnk.Cluster.machine cluster)
  in
  let c0 = Dcmf.attach fabric ~rank:0 in
  ignore (Dcmf.attach fabric ~rank:1);
  let out = Hashtbl.create 32 in
  let send_t0 = ref 0 in
  let record layer bytes cycles =
    let prev = Option.value ~default:0 (Hashtbl.find_opt out (layer, bytes)) in
    Hashtbl.replace out (layer, bytes) (prev + cycles)
  in
  let image =
    Image.executable ~name:"msgbench" (fun () ->
        let r = Bg_rt.Libc.rank () in
        bench_program ~sizes ~reps ~send_t0 ~record r (Dcmf.attach fabric ~rank:r))
  in
  Cnk.Cluster.run_job cluster (Job.create ~name:"msgbench" image);
  Array.iter
    (fun node ->
      match Cnk.Node.faults node with
      | [] -> ()
      | (_, m) :: _ -> failwith ("Msgbench: CNK fault: " ^ m))
    (Cnk.Cluster.nodes cluster);
  collect Cnk_user sizes reps out (Dcmf.injected_descriptors c0)

let run_fwk ?(sizes = default_sizes) ?(reps = default_reps) ~tick () =
  (* daemons off in both FWK cells so the quiet/tick contrast isolates
     the tick scheduler; seeds are fixed for reproducibility *)
  let tick_interval = if tick then None else Some (1 lsl 50) in
  let cluster =
    Bg_fwk.Cluster.create ~noise_seed:7_000L ~daemons:Bg_fwk.Noise_model.quiet_daemon_set
      ?tick_interval ~dims:(2, 1, 1) ()
  in
  let fabric = Dcmf.make_fabric ~path:Dcmf.Dma_kernel (Bg_fwk.Cluster.machine cluster) in
  let c0 = Dcmf.attach fabric ~rank:0 in
  ignore (Dcmf.attach fabric ~rank:1);
  let out = Hashtbl.create 32 in
  let send_t0 = ref 0 in
  let record layer bytes cycles =
    let prev = Option.value ~default:0 (Hashtbl.find_opt out (layer, bytes)) in
    Hashtbl.replace out (layer, bytes) (prev + cycles)
  in
  Bg_fwk.Cluster.boot_all cluster;
  (* each rank's image carries its rank: asking the kernel would add a
     syscall to the timed program *)
  Array.iteri
    (fun rank _ ->
      Bg_fwk.Cluster.launch_all cluster ~ranks:[ rank ]
        (Job.create ~name:"msgbench"
           (Image.executable ~name:"msgbench" (fun () ->
                bench_program ~sizes ~reps ~send_t0 ~record rank (Dcmf.attach fabric ~rank)))))
    (Bg_fwk.Cluster.nodes cluster);
  Bg_fwk.Cluster.run_until_quiet cluster;
  Array.iteri
    (fun rank node ->
      if Bg_fwk.Node.job_active node then
        failwith (Printf.sprintf "Msgbench: FWK rank %d did not finish" rank);
      match Bg_fwk.Node.faults node with
      | [] -> ()
      | (_, m) :: _ -> failwith ("Msgbench: FWK fault: " ^ m))
    (Bg_fwk.Cluster.nodes cluster);
  collect (if tick then Fwk_tick else Fwk_quiet) sizes reps out
    (Dcmf.injected_descriptors c0)

let run_all ?(sizes = default_sizes) ?(reps = default_reps) () =
  [
    run_cnk ~sizes ~reps ();
    run_fwk ~sizes ~reps ~tick:false ();
    run_fwk ~sizes ~reps ~tick:true ();
  ]

(* --- analysis -------------------------------------------------------- *)

let find_latency r ~layer ~bytes =
  let rec go = function
    | [] -> None
    | (l, b, cy) :: _ when l = layer && b = bytes -> Some cy
    | _ :: rest -> go rest
  in
  go r.latency

(* Smallest size at which rendezvous beats eager (the Table I crossover);
   None when one protocol dominates the whole sweep. *)
let crossover r =
  let rec go = function
    | [] -> None
    | size :: rest -> (
      match (find_latency r ~layer:"dcmf_eager" ~bytes:size,
             find_latency r ~layer:"dcmf_rndv" ~bytes:size)
      with
      | Some e, Some v when v < e -> Some size
      | _ -> go rest)
  in
  go r.sizes

let total_latency r = List.fold_left (fun acc (_, _, cy) -> acc + cy) 0 r.latency

let digest results =
  let h = ref Fnv.empty in
  List.iter
    (fun r ->
      h := Fnv.add_string !h (cell_name r.cell);
      List.iter
        (fun (l, b, cy) ->
          h := Fnv.add_string !h l;
          h := Fnv.add_int !h b;
          h := Fnv.add_int !h cy)
        r.latency;
      List.iter
        (fun (m, b, cy) ->
          h := Fnv.add_string !h m;
          h := Fnv.add_int !h b;
          h := Fnv.add_int !h cy)
        r.bandwidth;
      h := Fnv.add_int !h r.descriptors;
      h := Fnv.add_int !h r.wall)
    results;
  Fnv.to_hex !h

(* --- rendering ------------------------------------------------------- *)

let us_of_cycles cy = float_of_int cy /. 850.0

let mb_s_of ~bytes ~cycles =
  float_of_int bytes /. (float_of_int cycles /. 850e6) /. 1.0e6

let pp_table ppf results =
  let find cell = List.find_opt (fun r -> r.cell = cell) results in
  let cells = [ Cnk_user; Fwk_quiet; Fwk_tick ] in
  Format.fprintf ppf
    "# one-way latency (us), 2-node torus, 1 hop, 850 MHz (paper Table I)@.";
  Format.fprintf ppf "%-12s %8s" "layer" "bytes";
  List.iter
    (fun c ->
      match find c with
      | Some _ -> Format.fprintf ppf " %15s" (cell_name c)
      | None -> ())
    cells;
  Format.fprintf ppf "@.";
  (match find Cnk_user with
  | None -> ()
  | Some r0 ->
    List.iter
      (fun layer ->
        List.iter
          (fun size ->
            if find_latency r0 ~layer ~bytes:size <> None then begin
              Format.fprintf ppf "%-12s %8d" layer size;
              List.iter
                (fun c ->
                  match find c with
                  | Some r -> (
                    match find_latency r ~layer ~bytes:size with
                    | Some cy ->
                      Format.fprintf ppf " %15.2f" (us_of_cycles (cy / r.reps))
                    | None -> Format.fprintf ppf " %15s" "-")
                  | None -> ())
                cells;
              Format.fprintf ppf "@."
            end)
          r0.sizes)
      layers);
  List.iter
    (fun r ->
      List.iter
        (fun (mode, bytes, cycles) ->
          Format.fprintf ppf "bandwidth %s %s %d bytes: %.0f MB/s@."
            (cell_name r.cell) mode bytes (mb_s_of ~bytes ~cycles))
        r.bandwidth;
      (match crossover r with
      | Some s ->
        Format.fprintf ppf "crossover %s: rendezvous wins from %d bytes@."
          (cell_name r.cell) s
      | None ->
        Format.fprintf ppf "crossover %s: none in sweep@." (cell_name r.cell));
      Format.fprintf ppf "descriptors %s: %d injected on rank 0@."
        (cell_name r.cell) r.descriptors;
      Format.fprintf ppf "wall %s: %.1f us@." (cell_name r.cell)
        (us_of_cycles r.wall))
    results

let to_json results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"benchmark\": \"msg\",\n  \"cells\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "    {\"cell\": \"%s\", \"descriptors\": %d, \"wall_us\": %.1f,\n"
           (cell_name r.cell) r.descriptors (us_of_cycles r.wall));
      Buffer.add_string b "     \"latency_us\": [";
      List.iteri
        (fun j (l, by, cy) ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf "{\"layer\": \"%s\", \"bytes\": %d, \"us\": %.3f}" l
               by (us_of_cycles (cy / r.reps))))
        r.latency;
      Buffer.add_string b "],\n     \"bandwidth_mb_s\": [";
      List.iteri
        (fun j (m, by, cy) ->
          if j > 0 then Buffer.add_string b ", ";
          Buffer.add_string b
            (Printf.sprintf "{\"mode\": \"%s\", \"bytes\": %d, \"mb_s\": %.1f}"
               m by (mb_s_of ~bytes:by ~cycles:cy)))
        r.bandwidth;
      Buffer.add_string b "],\n";
      Buffer.add_string b
        (match crossover r with
        | Some s -> Printf.sprintf "     \"crossover_bytes\": %d}" s
        | None -> "     \"crossover_bytes\": null}"))
    results;
  Buffer.add_string b
    (Printf.sprintf "\n  ],\n  \"digest\": \"%s\"\n}\n" (digest results));
  Buffer.contents b
