(* bgp_run — submit a job to a simulated Blue Gene/P machine.

   Plays the role of the control system's job launcher: pick a kernel
   (cnk or fwk), a node mode (smp/dual/vn), a machine size and a built-in
   workload, run it, and report. Both kernels run the same program image
   through the same harness interface; the FWK launches one process per
   node, so it rejects --mode dual|vn, and umt (whose library lives in
   CNK's shared I/O filesystem). Examples:

     dune exec bin/bgp_run.exe -- --workload fwq
     dune exec bin/bgp_run.exe -- --kernel fwk --workload hello --nodes 4
     dune exec bin/bgp_run.exe -- --workload umt --mode vn
     dune exec bin/bgp_run.exe -- --workload amg --threads 4 *)

open Cmdliner

type workload = Fwq | Umt | Amg | Hello | Halo | Cg

let workload_name = function
  | Fwq -> "fwq"
  | Umt -> "umt"
  | Amg -> "amg"
  | Hello -> "hello"
  | Halo -> "halo"
  | Cg -> "cg"

let workload_conv =
  let parse = function
    | "fwq" -> Ok Fwq
    | "umt" -> Ok Umt
    | "amg" -> Ok Amg
    | "hello" -> Ok Hello
    | "halo" -> Ok Halo
    | "cg" -> Ok Cg
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S (fwq|umt|amg|hello|halo|cg)" s))
  in
  let print ppf w = Format.pp_print_string ppf (workload_name w) in
  Arg.conv (parse, print)

let mode_conv =
  let parse = function
    | "smp" -> Ok Job.Smp
    | "dual" -> Ok Job.Dual
    | "vn" -> Ok Job.Vn
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (smp|dual|vn)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with Job.Smp -> "smp" | Job.Dual -> "dual" | Job.Vn -> "vn")
  in
  Arg.conv (parse, print)

(* The program image for [workload] on every rank of [machine], and the
   printer for its result. *)
let program workload ~kernel ~machine ~threads ~samples ~install_umt =
  let nodes = Machine.nodes machine in
  let fabric () =
    let fabric = Bg_msg.Dcmf.make_fabric machine in
    for r = 0 to nodes - 1 do
      ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
    done;
    fabric
  in
  match workload with
  | Hello ->
    ( (fun () ->
        let u = Bg_rt.Libc.uname () in
        Printf.printf "hello from %s %s rank %d\n" u.Sysreq.sysname u.Sysreq.release
          (Bg_rt.Libc.rank ())),
      ignore )
  | Fwq ->
    let entry, collect = Bg_apps.Fwq.program ~samples ~threads:4 () in
    ( entry,
      fun () ->
        Printf.printf "FWQ on %s: max spread %.5f%%\n" kernel
          (Bg_apps.Fwq.max_spread_percent (collect ())) )
  | Umt ->
    let entry, collect =
      Bg_apps.Umt_proxy.program ~lib_path:(install_umt ()) ~timesteps:5 ~threads ()
    in
    ( entry,
      fun () ->
        let r = collect () in
        Printf.printf "UMT: %d timesteps, checksum %d, wrote %s\n"
          r.Bg_apps.Umt_proxy.timesteps_run r.Bg_apps.Umt_proxy.sweep_checksum
          r.Bg_apps.Umt_proxy.output_file )
  | Amg ->
    let entry, collect = Bg_apps.Amg_proxy.program ~grid:32 ~sweeps:5 ~threads () in
    ( entry,
      fun () ->
        let r = collect () in
        Printf.printf "AMG: %d sweeps, residual %.0f, %d cycles\n" r.Bg_apps.Amg_proxy.sweeps
          r.Bg_apps.Amg_proxy.residual r.Bg_apps.Amg_proxy.wall_cycles )
  | Halo ->
    let entry, collect =
      Bg_apps.Halo.program ~fabric:(fabric ()) ~cells_per_rank:64 ~iterations:40
        ~compute_cycles_per_cell:2_000 ()
    in
    ( entry,
      fun () ->
        let r = collect () in
        Printf.printf "halo: %d iterations, checksum %d, %d cycles\n"
          r.Bg_apps.Halo.iterations r.Bg_apps.Halo.checksum r.Bg_apps.Halo.wall_cycles )
  | Cg ->
    let fabric = fabric () in
    let coll = Bg_msg.Mpi.Coll.create fabric ~participants:nodes in
    let entry, collect =
      Bg_apps.Cg_solver.program ~fabric ~coll ~cells_per_rank:32 ~iterations:40 ()
    in
    ( entry,
      fun () ->
        let r = collect () in
        Printf.printf "cg: residual %.3e -> %.3e in %d iterations, %d cycles\n"
          r.Bg_apps.Cg_solver.initial_residual r.Bg_apps.Cg_solver.final_residual
          r.Bg_apps.Cg_solver.iterations_run r.Bg_apps.Cg_solver.wall_cycles )

let run_on (type c) (module K : Kernel.CLUSTER with type t = c) (cluster : c) ~kernel
    ~install_umt workload mode threads samples =
  K.boot_all cluster;
  let name = workload_name workload in
  let entry, report =
    program workload ~kernel ~machine:(K.machine cluster) ~threads ~samples ~install_umt
  in
  K.run_job cluster (Job.create ~mode ~name (Image.executable ~name entry));
  report ();
  let sim = K.sim cluster in
  Printf.printf "%s finished at simulated cycle %d (%.2f ms)\n" name (Bg_engine.Sim.now sim)
    (Bg_engine.Cycles.to_us (Bg_engine.Sim.now sim) /. 1000.0);
  `Ok ()

let run kernel workload mode nodes threads samples seed =
  let dims = (nodes, 1, 1) in
  match kernel with
  | "cnk" ->
    let cluster = Cnk.Cluster.create ~seed ~dims () in
    run_on (module Cnk.Cluster) cluster ~kernel:"CNK"
      ~install_umt:(fun () -> Bg_apps.Umt_proxy.install (Cnk.Cluster.fs cluster))
      workload mode threads samples
  | "fwk" -> (
    match (workload, mode) with
    | Umt, _ ->
      `Error
        (false, "umt installs its library into CNK's shared I/O filesystem; use --kernel cnk")
    | _, (Job.Dual | Job.Vn) ->
      `Error (false, "the FWK launches one process per node; --mode dual|vn needs --kernel cnk")
    | _, Job.Smp ->
      run_on (module Bg_fwk.Cluster) (Bg_fwk.Cluster.create ~seed ~dims ()) ~kernel:"FWK"
        ~install_umt:(fun () -> assert false (* umt rejected above *))
        workload mode threads samples)
  | k -> `Error (false, Printf.sprintf "unknown kernel %S (cnk|fwk)" k)

let cmd =
  let kernel =
    Arg.(value & opt string "cnk" & info [ "kernel"; "k" ] ~doc:"Kernel: cnk or fwk.")
  in
  let workload =
    Arg.(value & opt workload_conv Hello & info [ "workload"; "w" ] ~doc:"Workload to run.")
  in
  let mode = Arg.(value & opt mode_conv Job.Smp & info [ "mode"; "m" ] ~doc:"Node mode.") in
  let nodes = Arg.(value & opt int 1 & info [ "nodes"; "n" ] ~doc:"Compute nodes.") in
  let threads = Arg.(value & opt int 4 & info [ "threads"; "t" ] ~doc:"OpenMP threads.") in
  let samples = Arg.(value & opt int 2000 & info [ "samples" ] ~doc:"FWQ samples.") in
  let seed = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Simulation seed.") in
  let term = Term.(ret (const run $ kernel $ workload $ mode $ nodes $ threads $ samples $ seed)) in
  Cmd.v (Cmd.info "bgp_run" ~doc:"Run a job on a simulated Blue Gene/P machine") term

let () = exit (Cmd.eval cmd)
