open Bg_engine

type node = Node.t
type t = { machine : Machine.t; nodes : Node.t array }

let create ?seed ?noise_seed ?daemons ?tick_interval ~dims () =
  let machine = Machine.create ?seed ~dims () in
  let nodes =
    Array.init (Machine.nodes machine) (fun rank ->
        let noise_seed = Option.map (fun s -> Int64.add s (Int64.of_int rank)) noise_seed in
        Node.create ?noise_seed ?daemons ?tick_interval ~stripped:true machine ~rank ())
  in
  { machine; nodes }

let machine t = t.machine
let sim t = t.machine.Machine.sim
let nodes t = t.nodes
let node t i = t.nodes.(i)

module D = Kernel.Drive (Node)

let boot_all t = D.boot_all (sim t) t.nodes
let launch_all t ?ranks job = D.launch_all t.nodes ?ranks job
let run_job t ?ranks job = D.run_job (sim t) t.nodes ?ranks job
let run_until_quiet t = ignore (Sim.run (sim t))
