(* trace_tool — causal-graph analysis from the command line.

     dune exec bin/trace_tool.exe -- critical-path --nodes 32
     dune exec bin/trace_tool.exe -- message-lifecycle

   critical-path runs the same seeded allreduce under CNK and under the
   Linux-like FWK with the causal collector, the cycle ledger and span
   collection live, then walks the edge graph backward from the last
   collective delivery: the chain it prints is the sequence of events
   that actually determined the completion time, every segment of it
   charged to a ledger category (or to the network). The tool asserts
   that the attribution tiles the path exactly and that the FWK path
   blames a strictly larger tick+daemon share than CNK's — the paper's
   noise story, read off a single causal trace instead of a statistic.

   message-lifecycle traces one function-shipped I/O request end to end
   (request mint on the compute node, CIOD service, reply delivery) over
   the reliable CIO transport and prints the chain plus the number of
   Request->Reply edges — at-most-once execution means exactly one per
   request even when frames were retransmitted.

   Both subcommands print the graph's FNV digest; two runs of the same
   seed must print the same hex string (`grep digest` and diff). *)

open Cmdliner
module Obs = Bg_obs.Obs
module Causal = Bg_obs.Causal
module Accounting = Bg_obs.Accounting
module Export = Bg_obs.Export

let enable_all machine =
  Obs.set_enabled machine.Machine.obs true;
  Accounting.set_enabled machine.Machine.acct true;
  Causal.set_enabled (Machine.causal machine) true

let dims_of nodes =
  match nodes with
  | 1 -> (1, 1, 1)
  | 2 -> (2, 1, 1)
  | 4 -> (2, 2, 1)
  | 8 -> (2, 2, 2)
  | 16 -> (4, 2, 2)
  | 32 -> (4, 4, 2)
  | 64 -> (4, 4, 4)
  | n -> (n, 1, 1)

let print_path path =
  List.iteri
    (fun i (n : Causal.node) ->
      let where =
        if n.Causal.rank = Obs.node_scope then "net/ctl"
        else Printf.sprintf "rank%d/core%d" n.Causal.rank n.Causal.core
      in
      Printf.printf "  %2d. @%-12d %-14s %s.%s\n" i n.Causal.at where n.Causal.cat
        n.Causal.name)
    path

(* Share of the on-path ledger cycles blamed on noise sources (timer
   ticks + daemons) — the quantity the critical path localizes. *)
let tick_daemon_share (a : Causal.attribution) =
  let part st = try List.assoc st a.Causal.ledger with Not_found -> 0 in
  if a.Causal.total = 0 then 0.0
  else
    float_of_int (part Accounting.Interrupt + part Accounting.Daemon)
    /. float_of_int a.Causal.total

let analyze ~label machine =
  let g = Machine.causal machine in
  match Causal.last_matching g ~cat:"coll" ~name:"deliver" with
  | None -> failwith (label ^ ": no collective delivery in the causal graph")
  | Some c ->
    let path = Causal.critical_path g c in
    let attr = Causal.attribute_path g machine.Machine.acct path in
    Printf.printf "== %s ==\n" label;
    Printf.printf "critical path to the last allreduce delivery (%d nodes):\n"
      (List.length path);
    print_path path;
    Format.printf "%a@." Causal.pp_attribution attr;
    let ledger_sum = List.fold_left (fun a (_, c) -> a + c) 0 attr.Causal.ledger in
    if attr.Causal.network + ledger_sum <> attr.Causal.total then
      failwith
        (Printf.sprintf "%s: attribution does not tile the path (%d + %d <> %d)" label
           attr.Causal.network ledger_sum attr.Causal.total);
    Printf.printf "attribution exact: network %d + ledger %d = path %d cycles\n"
      attr.Causal.network ledger_sum attr.Causal.total;
    Printf.printf "graph: %d nodes, %d edges, %d dropped\n" (Causal.node_count g)
      (Causal.edge_count g) (Causal.dropped g);
    Printf.printf "causal digest=%s\n" (Bg_engine.Fnv.to_hex (Causal.digest g));
    attr

let run_allreduce (type c) (module K : Kernel.CLUSTER with type t = c) (cluster : c)
    ~iterations ~work =
  let machine = K.machine cluster in
  let nodes = Machine.nodes machine in
  enable_all machine;
  K.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric machine in
  for r = 0 to nodes - 1 do
    ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
  done;
  let coll = Bg_msg.Mpi.Coll.create fabric ~participants:nodes in
  let entry, _ =
    Bg_apps.Allreduce_bench.program ~fabric ~coll ~iterations ~per_iteration_work:work ()
  in
  K.run_job cluster (Job.create ~name:"allreduce" (Image.executable ~name:"allreduce" entry));
  machine

let critical_path nodes iterations work seed chrome =
  let dims = dims_of nodes in
  Printf.printf "allreduce critical path: %d nodes, %d iterations x %d cycles, seed %Ld\n"
    nodes iterations work seed;
  let cnk =
    run_allreduce (module Cnk.Cluster) (Cnk.Cluster.create ~dims ~seed ()) ~iterations ~work
  in
  let a_cnk = analyze ~label:"CNK" cnk in
  let fwk =
    run_allreduce (module Bg_fwk.Cluster) (Bg_fwk.Cluster.create ~dims ~seed ()) ~iterations
      ~work
  in
  let a_fwk = analyze ~label:"Linux (FWK)" fwk in
  (match chrome with
  | None -> ()
  | Some path ->
    let json = Export.chrome_trace ~causal:(Machine.causal fwk) fwk.Machine.obs in
    (match Export.validate_json json with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "internal error: emitted bad JSON: %s" e));
    Export.to_file ~path json;
    Printf.printf "wrote %s (%d bytes, spans + causal flow arrows)\n" path
      (String.length json));
  let s_cnk = tick_daemon_share a_cnk in
  let s_fwk = tick_daemon_share a_fwk in
  Printf.printf "tick+daemon share of the critical path: CNK %.4f%%, FWK %.4f%%\n"
    (100.0 *. s_cnk) (100.0 *. s_fwk);
  if s_fwk > s_cnk then begin
    Printf.printf "OK: the FWK critical path blames a larger tick+daemon share\n";
    0
  end
  else begin
    Printf.printf "FAIL: expected the FWK path to blame more tick+daemon time\n";
    1
  end

let message_lifecycle seed legacy =
  let cio = if legacy then Bg_cio.Reliable.off else Bg_cio.Reliable.default_on in
  let cluster = Cnk.Cluster.create ~dims:(1, 1, 1) ~seed ~cio () in
  let machine = Cnk.Cluster.machine cluster in
  enable_all machine;
  Cnk.Cluster.boot_all cluster;
  let entry () =
    let fd = Bg_rt.Libc.openf ~flags:Sysreq.o_create_trunc "/trace_tool.txt" in
    ignore (Bg_rt.Libc.write_string fd "causal tracer was here\n");
    Bg_rt.Libc.close fd
  in
  Cnk.Cluster.run_job cluster
    (Job.create ~name:"lifecycle" (Image.executable ~name:"lifecycle" entry));
  let g = Machine.causal machine in
  (match Causal.last_matching g ~cat:"cio" ~name:"reply.deliver" with
  | None -> failwith "message-lifecycle: no reply delivery in the causal graph"
  | Some c ->
    let path = Causal.critical_path g c in
    Printf.printf "lifecycle of the last function-shipped request (%s transport):\n"
      (if legacy then "legacy" else "reliable");
    print_path path);
  let edges = Causal.edges g in
  let count k = List.length (List.filter (fun e -> e.Causal.kind = k) edges) in
  Printf.printf "edges: %d request->reply, %d send->recv, %d parent->child\n"
    (count Causal.Request_reply) (count Causal.Send_recv) (count Causal.Parent_child);
  Printf.printf "graph: %d nodes, %d edges, %d dropped\n" (Causal.node_count g)
    (Causal.edge_count g) (Causal.dropped g);
  Printf.printf "causal digest=%s\n" (Bg_engine.Fnv.to_hex (Causal.digest g));
  0

let nodes_arg = Arg.(value & opt int 32 & info [ "nodes" ] ~doc:"Node count.")

let iters_arg =
  Arg.(value & opt int 8 & info [ "iterations" ] ~doc:"Allreduce iterations.")

let work_arg =
  Arg.(
    value
    & opt int 850_000
    & info [ "work" ] ~doc:"Per-iteration compute (cycles) between allreduces.")

let seed_arg = Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Machine seed.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ]
        ~doc:"Write the FWK run as Chrome trace JSON with causal flow arrows.")

let legacy_arg =
  Arg.(value & flag & info [ "legacy" ] ~doc:"Use the legacy lossless CIO transport.")

let cmds =
  [
    Cmd.v
      (Cmd.info "critical-path"
         ~doc:
           "Run a seeded allreduce under CNK and FWK with causal tracing live, walk \
            the critical path to the last delivery and attribute every cycle on it.")
      Term.(const critical_path $ nodes_arg $ iters_arg $ work_arg $ seed_arg $ chrome_arg);
    Cmd.v
      (Cmd.info "message-lifecycle"
         ~doc:
           "Trace one function-shipped I/O request end to end and print its causal \
            chain.")
      Term.(const message_lifecycle $ seed_arg $ legacy_arg);
  ]

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "trace_tool" ~doc:"Causal trace analysis") cmds))
