open Bg_engine

type node = Node.t

type t = {
  machine : Machine.t;
  nodes : Node.t array;
  ciods : Bg_cio.Ciod.t array;  (* indexed by io node *)
  fs : Bg_cio.Fs.t;
  nodes_per_io_node : int;
}

let create ?params ?seed ?mapping_config ?nodes_per_io_node ?cio ~dims () =
  let machine = Machine.create ?params ?seed ?nodes_per_io_node ~dims () in
  let n = Machine.nodes machine in
  let nodes_per_io_node =
    match nodes_per_io_node with Some k -> k | None -> if n <= 64 then n else 64
  in
  let io_nodes = (n + nodes_per_io_node - 1) / nodes_per_io_node in
  let fs = Bg_cio.Fs.create () in
  let ciods =
    Array.init io_nodes (fun io_node ->
        Bg_cio.Ciod.create machine ~fs ?config:cio ~io_node ())
  in
  let nodes =
    Array.init n (fun rank ->
        Node.create ?mapping_config machine ~rank ~ciod:ciods.(rank / nodes_per_io_node) ())
  in
  { machine; nodes; ciods; fs; nodes_per_io_node }

let machine t = t.machine
let sim t = t.machine.Machine.sim
let nodes t = t.nodes
let node t i = t.nodes.(i)
let fs t = t.fs
let ciod_for t ~rank = t.ciods.(rank / t.nodes_per_io_node)
let ciod t ~io_node = t.ciods.(io_node)
let io_node_count t = Array.length t.ciods

let pset_ranks t ~io_node =
  let n = Array.length t.nodes in
  let lo = io_node * t.nodes_per_io_node in
  let hi = min n (lo + t.nodes_per_io_node) in
  List.init (hi - lo) (fun i -> lo + i)

module D = Kernel.Drive (Node)

let boot_all t = D.boot_all (sim t) t.nodes
let launch_all t ?ranks job = D.launch_all t.nodes ?ranks job
let run_job t ?ranks job = D.run_job (sim t) t.nodes ?ranks job
let run_until_quiet t = ignore (Sim.run (sim t))
