(* cio_chaos_tool — sweep collective-network fault rates (and CIOD
   crashes) against the reliable function-ship transport and prove the
   application never notices (paper §IV.A, §VI).

     dune exec bin/cio_chaos_tool.exe -- --seed 1 --csv /tmp/chaos.csv

   Each cell boots a 4-node machine (two psets) with the CRC-framed
   retransmission protocol enabled, turns on a drop/corrupt/duplicate
   fault model in the collective tree — plus, in the crash cells, a
   Poisson stream of CIOD crash/restart events — and runs a per-rank
   write-then-verify workload. The acceptance claim is end-to-end
   reliability: every cell's application-visible file bytes must hash
   identically to the fault-free cell's, no request may surface EIO, and
   the faulty cells must actually have exercised the machinery (drops,
   retransmissions, replayed duplicates).

   Every run prints its sim trace digest, and the tool ends with a
   combined digest over the whole sweep. The full output of
   [--seed 1] is pinned in test/golden/cio_chaos.expected. *)

open Cmdliner
module Obs = Bg_obs.Obs
module Res = Bg_resilience
module Net = Bg_hw.Collective_net
module Fnv = Bg_engine.Fnv

type cell = { drop : float; corrupt : float; ciod_crash_mean : float }

type row = {
  cell : cell;
  makespan : int;
  drops : int;
  corruptions : int;
  duplicates : int;
  retransmits : int;
  dups_replayed : int;
  crashes : int;
  eio : int;
  file_digest : string;  (** FNV over every rank's file bytes *)
  digest : string;  (** sim trace digest *)
}

let chunk_bytes = 2048
let chunks = 6

let file_path rank = Printf.sprintf "/chaos-rank-%02d.dat" rank

let expected_content rank =
  let b = Buffer.create (chunk_bytes * chunks) in
  for chunk = 0 to chunks - 1 do
    Buffer.add_bytes b (Bytes.make chunk_bytes (Char.chr (97 + ((rank + chunk) mod 26))))
  done;
  Buffer.contents b

(* Per-rank writer + read-back verifier, strictly per-rank files: fault
   reordering across ranks must never change what any one rank reads. *)
let workload () =
  let rank = Bg_rt.Libc.rank () in
  let fd =
    Bg_rt.Libc.openf
      ~flags:{ Sysreq.o_rdwr with Sysreq.creat = true; trunc = true }
      (file_path rank)
  in
  for chunk = 0 to chunks - 1 do
    let payload = Bytes.make chunk_bytes (Char.chr (97 + ((rank + chunk) mod 26))) in
    if Bg_rt.Libc.write fd payload <> chunk_bytes then
      failwith "cio_chaos: short write"
  done;
  Bg_rt.Libc.fsync fd;
  let back = Bg_rt.Libc.pread fd ~len:(chunk_bytes * chunks) ~offset:0 in
  if Bytes.to_string back <> expected_content rank then
    failwith "cio_chaos: read-back mismatch";
  Bg_rt.Libc.close fd

let ranks = 4

let hash_files cluster =
  let fs = Cnk.Cluster.fs cluster in
  let acc = ref Fnv.empty in
  for rank = 0 to ranks - 1 do
    match Bg_cio.Fs.resolve fs ~cwd:"/" (file_path rank) with
    | Error e ->
      failwith
        (Printf.sprintf "cio_chaos: rank %d file missing (%s)" rank (Errno.to_string e))
    | Ok inode ->
      let size = Bg_cio.Fs.size fs inode in
      let data =
        match Bg_cio.Fs.read fs inode ~offset:0 ~len:size with
        | Ok b -> b
        | Error e ->
          failwith (Printf.sprintf "cio_chaos: rank %d unreadable (%s)" rank
                      (Errno.to_string e))
      in
      acc := Fnv.add_int (Fnv.add_bytes !acc data) size
  done;
  Fnv.to_hex !acc

let run_cell ~seed cell =
  let cluster =
    Cnk.Cluster.create ~seed ~dims:(2, 2, 1) ~nodes_per_io_node:2
      ~cio:Bg_cio.Reliable.default_on ()
  in
  let machine = Cnk.Cluster.machine cluster in
  let obs = Machine.obs machine in
  Obs.set_enabled obs true;
  Cnk.Cluster.boot_all cluster;
  Net.set_fault_config machine.Machine.collective
    {
      Net.drop_rate = cell.drop;
      corrupt_rate = cell.corrupt;
      dup_rate = cell.drop /. 2.;
      jitter_max = (if cell.drop > 0. || cell.corrupt > 0. then 200 else 0);
    };
  let sched = Bg_control.Scheduler.create cluster in
  ignore (Res.Recovery.attach sched);
  let injector =
    Res.Injector.attach
      ~config:
        {
          Res.Injector.default with
          Res.Injector.ciod_crash_mean = cell.ciod_crash_mean;
          ciod_restart_after = 150_000;
        }
      cluster
  in
  let start = Bg_engine.Sim.now (Cnk.Cluster.sim cluster) in
  let image = Image.executable ~name:"cio-chaos" workload in
  Cnk.Cluster.run_job cluster (Job.create ~name:"cio-chaos" image);
  let makespan = Bg_engine.Sim.now (Cnk.Cluster.sim cluster) - start in
  let net = machine.Machine.collective in
  let ciod_sum f =
    let total = ref 0 in
    for io = 0 to Cnk.Cluster.io_node_count cluster - 1 do
      total := !total + f (Cnk.Cluster.ciod cluster ~io_node:io)
    done;
    !total
  in
  {
    cell;
    makespan;
    drops = Net.drops net;
    corruptions = Net.corruptions net;
    duplicates = Net.duplicates net;
    retransmits = Obs.counter_total obs ~subsystem:"cio" ~name:"retransmits";
    dups_replayed = ciod_sum Bg_cio.Ciod.retransmits_seen;
    crashes = Res.Injector.ciod_crash_count injector;
    eio = Obs.counter_total obs ~subsystem:"cio" ~name:"eio";
    file_digest = hash_files cluster;
    digest =
      Fnv.to_hex (Bg_engine.Trace.digest (Bg_engine.Sim.trace (Cnk.Cluster.sim cluster)));
  }

let header =
  "drop,corrupt,ciod_crash_mean,makespan,drops,corruptions,duplicates,retransmits,\
   dups_replayed,crashes,eio,file_digest"

let to_csv r =
  Printf.sprintf "%.2f,%.2f,%.0f,%d,%d,%d,%d,%d,%d,%d,%d,%s" r.cell.drop r.cell.corrupt
    r.cell.ciod_crash_mean r.makespan r.drops r.corruptions r.duplicates r.retransmits
    r.dups_replayed r.crashes r.eio r.file_digest

let sweep ~seed =
  let cells =
    List.concat_map
      (fun drop ->
        List.map (fun corrupt -> { drop; corrupt; ciod_crash_mean = 0. }) [ 0.; 0.05 ])
      [ 0.; 0.1; 0.25 ]
    @ [ { drop = 0.1; corrupt = 0.05; ciod_crash_mean = 400_000. } ]
  in
  List.map (fun c -> run_cell ~seed c) cells

let run seed csv quiet =
  let rows = sweep ~seed in
  let combined =
    List.fold_left
      (fun acc r -> Fnv.add_bytes acc (Bytes.of_string r.digest))
      Fnv.empty rows
  in
  if not quiet then begin
    print_endline header;
    List.iter (fun r -> print_endline (to_csv r)) rows;
    List.iter
      (fun r ->
        Printf.printf "run digest: %.2f %.2f %.0f %s\n" r.cell.drop r.cell.corrupt
          r.cell.ciod_crash_mean r.digest)
      rows
  end;
  (match csv with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (header ^ "\n");
    List.iter (fun r -> output_string oc (to_csv r ^ "\n")) rows;
    close_out oc;
    Printf.printf "wrote %s (%d rows)\n%!" path (List.length rows));
  (* The acceptance claims. 1: whatever the network did, the bytes the
     application sees are the bytes it wrote — every cell's files hash
     identically to the fault-free baseline's. *)
  let baseline =
    List.find (fun r -> r.cell.drop = 0. && r.cell.corrupt = 0. && r.crashes = 0) rows
  in
  List.iter
    (fun r ->
      if r.file_digest <> baseline.file_digest then
        failwith
          (Printf.sprintf
             "cio_chaos: file bytes diverged at drop=%.2f corrupt=%.2f crash=%.0f \
              (%s vs %s)"
             r.cell.drop r.cell.corrupt r.cell.ciod_crash_mean r.file_digest
             baseline.file_digest);
      (* 2: reliability must come from retransmission, never from giving
         up — no cell may surface EIO to the application. *)
      if r.eio > 0 then
        failwith
          (Printf.sprintf "cio_chaos: %d EIO surfaced at drop=%.2f corrupt=%.2f"
             r.eio r.cell.drop r.cell.corrupt))
    rows;
  (* 3: the faulty cells really exercised the machinery. *)
  let faulty = List.filter (fun r -> r.cell.drop > 0.) rows in
  if faulty = [] then failwith "cio_chaos: sweep has no faulty cells";
  List.iter
    (fun r ->
      if r.drops = 0 || r.retransmits = 0 then
        failwith
          (Printf.sprintf
             "cio_chaos: drop=%.2f cell saw drops=%d retransmits=%d; fault model inert"
             r.cell.drop r.drops r.retransmits))
    faulty;
  (match List.find_opt (fun r -> r.cell.ciod_crash_mean > 0.) rows with
  | Some r when r.crashes = 0 ->
    failwith "cio_chaos: crash cell injected no CIOD crashes; lower the mean"
  | _ -> ());
  Printf.printf "combined digest: %s\n" (Fnv.to_hex combined)

let cmd =
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Fault-injection seed.") in
  let csv =
    Arg.(
      value & opt (some string) None & info [ "csv" ] ~doc:"Write the sweep as CSV.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the digest lines.")
  in
  Cmd.v
    (Cmd.info "cio_chaos_tool"
       ~doc:
         "Sweep collective-network faults against the reliable function-ship \
          transport and verify app-visible file bytes never change")
    Term.(const run $ seed $ csv $ quiet)

let () = exit (Cmd.eval cmd)
