module Rng = Bg_engine.Rng

type cls = Batch_cls | Interactive_cls | Filler_cls

type tenant = {
  name : string;
  weight : int;
  jobs : int;
  mean_interarrival : float;
  nodes_lo : int;
  nodes_hi : int;
  runtime_lo : int;
  runtime_hi : int;
  comm_fraction : float;
  runaway_fraction : float;
  cls : cls;
  gang_size : int;
}

type spec = {
  tenant : int;
  tenant_name : string;
  weight : int;
  seq : int;
  arrival : int;
  nodes : int;
  runtime : int;
  walltime : int;
  comm : bool;
  cls : cls;
  gang : int option;
}

let validate tenants =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun t ->
      if t.name = "" then invalid_arg "Workload: empty tenant name";
      if Hashtbl.mem seen t.name then
        invalid_arg (Printf.sprintf "Workload: duplicate tenant %S" t.name);
      Hashtbl.replace seen t.name ();
      if t.jobs <= 0 then invalid_arg (Printf.sprintf "Workload: %s has no jobs" t.name);
      if t.weight < 1 then invalid_arg (Printf.sprintf "Workload: %s weight" t.name);
      if t.nodes_lo < 1 || t.nodes_hi < t.nodes_lo then
        invalid_arg (Printf.sprintf "Workload: %s nodes range" t.name);
      if t.runtime_lo < 1 || t.runtime_hi < t.runtime_lo then
        invalid_arg (Printf.sprintf "Workload: %s runtime range" t.name);
      if t.mean_interarrival <= 0. then
        invalid_arg (Printf.sprintf "Workload: %s interarrival" t.name);
      if t.gang_size < 1 then invalid_arg (Printf.sprintf "Workload: %s gang size" t.name))
    tenants

let uniform_int rng lo hi = lo + Rng.int rng (hi - lo + 1)

(* One tenant's whole stream, from its own substream of the root seed.
   Every random quantity this tenant ever draws comes from [rng], in a
   fixed per-job order — so the sequence is a pure function of
   (seed, tenant record) and of nothing else. *)
(* Gang ids must be position-independent, like the RNG substream: a
   tenant joining or leaving the population must not renumber anyone
   else's gangs. Derive the namespace from the tenant name alone. *)
let gang_base name =
  let h =
    Bg_engine.Fnv.add_string Bg_engine.Fnv.empty name
    |> Int64.to_int |> abs |> fun h -> h land 0x3FFF_FFFF
  in
  (h + 1) * 65536

let tenant_specs ~root ~ix t =
  let rng = Rng.split root ("tenant." ^ t.name) in
  let specs = ref [] in
  let clock = ref 0. in
  let seq = ref 0 in
  let burst = ref 0 in
  while !seq < t.jobs do
    clock := !clock +. Rng.exponential rng ~mean:t.mean_interarrival;
    let arrival = int_of_float !clock in
    let gang_id = if t.gang_size > 1 then Some (gang_base t.name + !burst) else None in
    incr burst;
    let members = min t.gang_size (t.jobs - !seq) in
    for _ = 1 to members do
      let nodes = uniform_int rng t.nodes_lo t.nodes_hi in
      let runtime = uniform_int rng t.runtime_lo t.runtime_hi in
      let comm = nodes > 1 && Rng.float rng 1.0 < t.comm_fraction in
      let runaway = Rng.float rng 1.0 < t.runaway_fraction in
      let walltime =
        if runaway then max (runtime / 2) 1 else (runtime * 2) + 50_000
      in
      specs :=
        {
          tenant = ix;
          tenant_name = t.name;
          weight = t.weight;
          seq = !seq;
          arrival;
          nodes;
          runtime;
          walltime;
          comm;
          cls = t.cls;
          gang = gang_id;
        }
        :: !specs;
      incr seq
    done
  done;
  List.rev !specs

let generate ~seed tenants =
  validate tenants;
  let root = Rng.create seed in
  let all = List.concat (List.mapi (fun ix t -> tenant_specs ~root ~ix t) tenants) in
  (* field by field: [compare] on tuples would build two tuples per
     comparison *)
  let by_arrival a b =
    match Int.compare a.arrival b.arrival with
    | 0 -> ( match Int.compare a.tenant b.tenant with 0 -> Int.compare a.seq b.seq | c -> c)
    | c -> c
  in
  List.stable_sort by_arrival all

let total_jobs tenants = List.fold_left (fun acc t -> acc + t.jobs) 0 tenants

(* Round-robin synthetic population: heavyweight batch, communication-
   heavy batch, interactive burst, filler. Parameters vary with the
   tenant index so no two tenants are identical, but everything is a
   pure function of the index. *)
let mixed_tenants ~tenants ~jobs_per_tenant =
  List.init tenants (fun i ->
      let name = Printf.sprintf "t%02d" i in
      match i mod 4 with
      | 0 ->
        (* batch: medium jobs, steady rate *)
        {
          name;
          weight = 1 + (i mod 3);
          jobs = jobs_per_tenant;
          mean_interarrival = 400_000. +. float_of_int (20_000 * (i mod 5));
          nodes_lo = 1;
          nodes_hi = 4;
          runtime_lo = 100_000;
          runtime_hi = 400_000;
          comm_fraction = 0.2;
          runaway_fraction = 0.02;
          cls = Batch_cls;
          gang_size = 1;
        }
      | 1 ->
        (* communication-heavy batch: bigger, compact-shape hungry *)
        {
          name;
          weight = 1 + (i mod 2);
          jobs = jobs_per_tenant;
          mean_interarrival = 700_000. +. float_of_int (30_000 * (i mod 3));
          nodes_lo = 2;
          nodes_hi = 8;
          runtime_lo = 150_000;
          runtime_hi = 500_000;
          comm_fraction = 0.9;
          runaway_fraction = 0.02;
          cls = Batch_cls;
          gang_size = 1;
        }
      | 2 ->
        (* interactive: small fast bursts, gang-scheduled *)
        {
          name;
          weight = 2;
          jobs = jobs_per_tenant;
          mean_interarrival = 900_000. +. float_of_int (40_000 * (i mod 4));
          nodes_lo = 1;
          nodes_hi = 1;
          runtime_lo = 20_000;
          runtime_hi = 80_000;
          comm_fraction = 0.;
          runaway_fraction = 0.01;
          cls = Interactive_cls;
          gang_size = 3;
        }
      | _ ->
        (* filler: opportunistic single-node padding *)
        {
          name;
          weight = 1;
          jobs = jobs_per_tenant;
          mean_interarrival = 600_000. +. float_of_int (10_000 * (i mod 7));
          nodes_lo = 1;
          nodes_hi = 2;
          runtime_lo = 50_000;
          runtime_hi = 200_000;
          comm_fraction = 0.1;
          runaway_fraction = 0.03;
          cls = Filler_cls;
          gang_size = 1;
        })

let pp_spec fmt s =
  Format.fprintf fmt "%s/%d @%d nodes=%d run=%d wall=%d%s%s%s" s.tenant_name s.seq
    s.arrival s.nodes s.runtime s.walltime
    (if s.comm then " comm" else "")
    (match s.cls with
    | Batch_cls -> ""
    | Interactive_cls -> " interactive"
    | Filler_cls -> " filler")
    (match s.gang with Some g -> Printf.sprintf " gang=%d" g | None -> "")
