(* Tests for causal tracing: same-seed graph determinism, zero-cost when
   the knob is off, context surviving CIO retransmission (at-most-once =
   one Request->Reply edge), critical-path attribution tiling the path
   exactly, flow-event JSON, and the span-ring overflow drop counter. *)

open Bg_engine
open Bg_kabi
module Obs = Bg_obs.Obs
module Causal = Bg_obs.Causal
module Accounting = Bg_obs.Accounting
module Export = Bg_obs.Export

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* An I/O + allreduce workload on a small CNK cluster: syscalls ship to
   CIOD (Request->Reply edges), the collective contributes/delivers
   (Send_recv edges), the scheduler is not involved. *)

let nodes = 4

let allreduce_run ~seed ~causal_on =
  let cluster = Cnk.Cluster.create ~dims:(2, 2, 1) ~seed () in
  let machine = Cnk.Cluster.machine cluster in
  if causal_on then begin
    Obs.set_enabled (Machine.obs machine) true;
    Accounting.set_enabled (Machine.acct machine) true;
    Causal.set_enabled (Machine.causal machine) true
  end;
  Cnk.Cluster.boot_all cluster;
  let fabric = Bg_msg.Dcmf.make_fabric machine in
  for r = 0 to nodes - 1 do
    ignore (Bg_msg.Dcmf.attach fabric ~rank:r)
  done;
  let coll = Bg_msg.Mpi.Coll.create fabric ~participants:nodes in
  let entry, _ = Bg_apps.Allreduce_bench.program ~fabric ~coll ~iterations:3 () in
  Cnk.Cluster.run_job cluster
    (Job.create ~name:"allreduce" (Image.executable ~name:"allreduce" entry));
  (cluster, machine)

let test_same_seed_same_digest () =
  let _, a = allreduce_run ~seed:5L ~causal_on:true in
  let _, b = allreduce_run ~seed:5L ~causal_on:true in
  let ga = Machine.causal a and gb = Machine.causal b in
  check_bool "graph nonempty" true (Causal.node_count ga > 0);
  check_int "same node count" (Causal.node_count ga) (Causal.node_count gb);
  check_int "same edge count" (Causal.edge_count ga) (Causal.edge_count gb);
  check_string "same causal digest"
    (Fnv.to_hex (Causal.digest ga))
    (Fnv.to_hex (Causal.digest gb));
  check_bool "digest covers content" false (Fnv.equal (Causal.digest ga) Fnv.empty)

let test_sim_digest_unperturbed_by_causal () =
  let off, _ = allreduce_run ~seed:3L ~causal_on:false in
  let on_, on_machine = allreduce_run ~seed:3L ~causal_on:true in
  let d c = Fnv.to_hex (Trace.digest (Sim.trace (Cnk.Cluster.sim c))) in
  check_string "architectural trace identical with causal on vs off" (d off) (d on_);
  check_bool "and the graph actually recorded" true
    (Causal.node_count (Machine.causal on_machine) > 0)

(* ------------------------------------------------------------------ *)
(* Critical path + attribution *)

let test_critical_path_attribution_exact () =
  let _, machine = allreduce_run ~seed:7L ~causal_on:true in
  let g = Machine.causal machine in
  match Causal.last_matching g ~cat:"coll" ~name:"deliver" with
  | None -> Alcotest.fail "no collective delivery recorded"
  | Some c ->
    let path = Causal.critical_path g c in
    check_bool "path has at least contribute->complete->deliver" true
      (List.length path >= 3);
    (* timestamps never decrease along the path *)
    ignore
      (List.fold_left
         (fun prev (n : Causal.node) ->
           check_bool "monotone timestamps" true (n.Causal.at >= prev);
           n.Causal.at)
         0 path);
    let attr = Causal.attribute_path g (Machine.acct machine) path in
    let ledger_sum = List.fold_left (fun a (_, c) -> a + c) 0 attr.Causal.ledger in
    check_int "network + ledger tiles the path exactly" attr.Causal.total
      (attr.Causal.network + ledger_sum);
    let first = List.hd path and last = List.nth path (List.length path - 1) in
    check_int "total is the path length" (last.Causal.at - first.Causal.at)
      attr.Causal.total;
    check_bool "a straggler rank is named" true (attr.Causal.straggler >= 0)

(* ------------------------------------------------------------------ *)
(* Retransmission: a resent frame carries the SAME context, so the
   at-most-once replay cache yields exactly one Request->Reply edge. *)

let test_retransmit_one_request_reply_edge () =
  let machine = Machine.create ~dims:(2, 1, 1) () in
  let g = Machine.causal machine in
  Causal.set_enabled g true;
  let ciod = Bg_cio.Ciod.create machine ~config:Bg_cio.Reliable.default_on ~io_node:0 () in
  let replies = ref [] in
  Bg_cio.Ciod.register_node ciod ~rank:0 ~deliver:(fun b -> replies := b :: !replies);
  Bg_cio.Ciod.job_start ciod ~rank:0 ~pids:[ 1 ];
  let sim = machine.Machine.sim in
  let req_ctx =
    Causal.mint g ~cat:"test" ~name:"ship.request" ~rank:0 ~core:0 ~now:(Sim.now sim) ()
  in
  let frame =
    Bg_cio.Frame.encode
      {
        Bg_cio.Frame.kind = Bg_cio.Frame.Request;
        rank = 0;
        pid = 1;
        tid = 1;
        seq = 0;
        ctx = req_ctx;
        payload =
          Bg_cio.Proto.encode_request
            { Bg_cio.Proto.rank = 0; pid = 1; tid = 1 }
            (Sysreq.Open { path = "f"; flags = Sysreq.o_create_trunc; mode = 0o644 });
      }
  in
  Bg_cio.Ciod.submit ciod frame;
  ignore (Sim.run sim);
  (* the timeout path resends the encoded frame verbatim *)
  Bg_cio.Ciod.submit ciod (Bytes.copy frame);
  ignore (Sim.run sim);
  check_int "request executed once" 1 (Bg_cio.Ciod.requests_served ciod);
  check_int "duplicate hit the replay cache" 1 (Bg_cio.Ciod.retransmits_seen ciod);
  let rr_edges =
    List.filter (fun e -> e.Causal.kind = Causal.Request_reply) (Causal.edges g)
  in
  check_int "exactly one Request->Reply edge" 1 (List.length rr_edges);
  check_int "edge rooted at the shipped context" req_ctx
    (List.hd rr_edges).Causal.src;
  (* the reply frame carries the CIOD service node as its context *)
  (match !replies with
  | [] -> Alcotest.fail "no reply delivered"
  | b :: _ -> (
    match Bg_cio.Frame.decode b with
    | Ok f ->
      check_int "reply ctx is the service node" (List.hd rr_edges).Causal.dst
        f.Bg_cio.Frame.ctx
    | Error e -> Alcotest.fail (Bg_cio.Frame.error_message e)))

(* ------------------------------------------------------------------ *)
(* Flow-event export *)

let test_flow_event_golden () =
  let g = Causal.create ~seed:9 ~enabled:true () in
  let o = Obs.create () in
  let src = Causal.mint g ~chain:false ~cat:"msg" ~name:"send" ~rank:0 ~core:0 ~now:850 () in
  let dst = Causal.mint g ~chain:false ~cat:"msg" ~name:"recv" ~rank:1 ~core:2 ~now:1700 () in
  Causal.link g Causal.Send_recv ~src ~dst;
  let json = Export.chrome_trace ~causal:g o in
  (match Export.validate_json json with
  | Ok () -> ()
  | Error e -> Alcotest.failf "flow JSON invalid: %s" e);
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec at i = i + n <= m && (String.sub json i n = sub || at (i + 1)) in
    at 0
  in
  let s_event =
    "{\"name\":\"send->recv\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":\"0x0\",\"ts\":1.000,\"pid\":0,\"tid\":0}"
  in
  let f_event =
    "{\"name\":\"send->recv\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"0x0\",\"ts\":2.000,\"pid\":1,\"tid\":2}"
  in
  check_bool "s event verbatim" true (contains s_event);
  check_bool "f event verbatim" true (contains f_event);
  (* both endpoint ranks got process-name metadata rows *)
  check_bool "src rank labelled" true (contains "\"pid\":0,\"args\":{\"name\":");
  check_bool "dst rank labelled" true (contains "\"pid\":1,\"args\":{\"name\":")

let test_validator_rejects_raw_control_chars () =
  (match Export.validate_json "{\"name\":\"a\tb\"}" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "raw tab inside a string must be rejected");
  (match Export.validate_json "{\"name\":\"a\001b\"}" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "raw 0x01 inside a string must be rejected");
  (* json_escape makes the same content legal *)
  match Export.validate_json ("{\"name\":\"" ^ Export.json_escape "a\t\001b\"" ^ "\"}") with
  | Ok () -> ()
  | Error e -> Alcotest.failf "escaped control chars must validate: %s" e

let test_flow_fields_escaped () =
  (* A hostile instrumentation name must not break the emitted JSON. *)
  let g = Causal.create ~enabled:true () in
  let o = Obs.create () in
  let src =
    Causal.mint g ~chain:false ~cat:"msg" ~name:"evil\"\n\001name" ~rank:0 ~core:0
      ~now:100 ()
  in
  let dst = Causal.mint g ~chain:false ~cat:"msg" ~name:"ok" ~rank:0 ~core:0 ~now:200 () in
  Causal.link g Causal.Send_recv ~src ~dst;
  match Export.validate_json (Export.chrome_trace ~causal:g o) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "hostile names must still yield valid JSON: %s" e

(* ------------------------------------------------------------------ *)
(* Span-ring overflow: first-class drop counter per (rank, core) *)

let test_ring_overflow_drop_counter () =
  let o = Obs.create ~ring_capacity:4 ~enabled:true () in
  for i = 0 to 9 do
    Obs.span_record o ~cat:"t" ~name:"s" ~rank:2 ~core:1 ~start:(i * 10)
      ~finish:((i * 10) + 5)
  done;
  check_int "six spans evicted" 6 (Obs.dropped_spans o);
  check_int "per-scope drop counter" 6
    (Obs.counter_value o ~rank:2 ~core:1 ~subsystem:"obs" ~name:"dropped_spans" ());
  check_int "other scopes unaffected" 0
    (Obs.counter_value o ~rank:0 ~core:0 ~subsystem:"obs" ~name:"dropped_spans" ())

(* ------------------------------------------------------------------ *)
(* Model-based check of the columnar store: the list + Hashtbl graph the
   collector used to be, kept here verbatim as the reference. Random mint,
   link, lookup, enable and reset sequences must give the same nodes,
   edges, ids, counts, drops, digests, critical paths and capture bytes. *)

module Model = struct
  open Causal

  let kind_code = function
    | Send_recv -> 0
    | Inject_complete -> 1
    | Request_reply -> 2
    | Parent_child -> 3

  type t = {
    mutable enabled : bool;
    seed : int;
    max_nodes : int;
    by_id : (ctx, node) Hashtbl.t;
    mutable nodes_rev : node list;
    mutable edges_rev : edge list;
    mutable n_nodes : int;
    mutable n_edges : int;
    mutable minted : int;
    mutable dropped : int;
    tails : (int * int, ctx) Hashtbl.t;
    mutable digest : Fnv.t;
  }

  let create ~seed ~max_nodes ~enabled =
    {
      enabled;
      seed;
      max_nodes;
      by_id = Hashtbl.create 256;
      nodes_rev = [];
      edges_rev = [];
      n_nodes = 0;
      n_edges = 0;
      minted = 0;
      dropped = 0;
      tails = Hashtbl.create 16;
      digest = Fnv.empty;
    }

  let reset t =
    Hashtbl.reset t.by_id;
    Hashtbl.reset t.tails;
    t.nodes_rev <- [];
    t.edges_rev <- [];
    t.n_nodes <- 0;
    t.n_edges <- 0;
    t.minted <- 0;
    t.dropped <- 0;
    t.digest <- Fnv.empty

  let fresh_id t =
    let rec go () =
      t.minted <- t.minted + 1;
      let h = Fnv.add_int (Fnv.add_int Fnv.empty t.seed) t.minted in
      let id = Int64.to_int h land max_int in
      if id = none || Hashtbl.mem t.by_id id then go () else id
    in
    go ()

  let record_edge t kind ~src ~dst =
    t.edges_rev <- { kind; src; dst } :: t.edges_rev;
    t.n_edges <- t.n_edges + 1;
    let d = Fnv.add_int t.digest (kind_code kind) in
    let d = Fnv.add_int d src in
    t.digest <- Fnv.add_int d dst

  let link t kind ~src ~dst =
    if
      t.enabled && src <> none && dst <> none
      && Hashtbl.mem t.by_id src && Hashtbl.mem t.by_id dst
    then record_edge t kind ~src ~dst

  let mint t ~chain ~cat ~name ~rank ~core ~now =
    if not t.enabled then none
    else if t.n_nodes >= t.max_nodes then begin
      t.dropped <- t.dropped + 1;
      none
    end
    else begin
      let id = fresh_id t in
      let n = { id; cat; name; rank; core; at = now } in
      Hashtbl.add t.by_id id n;
      t.nodes_rev <- n :: t.nodes_rev;
      t.n_nodes <- t.n_nodes + 1;
      let d = Fnv.add_int t.digest id in
      let d = Fnv.add_string d cat in
      let d = Fnv.add_string d name in
      let d = Fnv.add_int d rank in
      let d = Fnv.add_int d core in
      t.digest <- Fnv.add_int d now;
      (if chain then
         match Hashtbl.find_opt t.tails (rank, core) with
         | Some prev -> record_edge t Parent_child ~src:prev ~dst:id
         | None -> ());
      Hashtbl.replace t.tails (rank, core) id;
      id
    end

  let nodes t = List.rev t.nodes_rev
  let edges t = List.rev t.edges_rev
  let find t id = Hashtbl.find_opt t.by_id id

  let last_matching t ~cat ~name =
    let rec go = function
      | [] -> None
      | n :: rest -> if n.cat = cat && n.name = name then Some n.id else go rest
    in
    go t.nodes_rev

  let capture t b =
    let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
    Buffer.add_uint8 b (if t.enabled then 1 else 0);
    w_i t.seed;
    w_i t.max_nodes;
    w_i t.n_nodes;
    w_i t.n_edges;
    w_i t.minted;
    w_i t.dropped;
    Buffer.add_int64_le b t.digest;
    let tails =
      Hashtbl.fold (fun k id acc -> (k, id) :: acc) t.tails [] |> List.sort compare
    in
    w_i (List.length tails);
    List.iter
      (fun ((rank, core), id) ->
        w_i rank;
        w_i core;
        w_i id)
      tails

  let critical_path t target =
    match Hashtbl.find_opt t.by_id target with
    | None -> []
    | Some tn ->
      let preds = Hashtbl.create 64 in
      List.iter
        (fun e ->
          match Hashtbl.find_opt t.by_id e.src with
          | None -> ()
          | Some sn -> (
            match Hashtbl.find_opt preds e.dst with
            | Some (best : node) when sn.at <= best.at -> ()
            | _ -> Hashtbl.replace preds e.dst sn))
        (List.rev t.edges_rev);
      let visited = Hashtbl.create 64 in
      let rec walk acc (n : node) =
        if Hashtbl.mem visited n.id then acc
        else begin
          Hashtbl.add visited n.id ();
          match Hashtbl.find_opt preds n.id with
          | Some p when p.at <= n.at -> walk (n :: acc) p
          | _ -> n :: acc
        end
      in
      walk [] tn
end

(* A context operand: the k-th newest node (modulo the count), an id no
   node has, or [none]. *)
type ctx_ref = Known of int | Unknown of int | No_ctx

type causal_op =
  | Mint of { chain : bool; cat : string; name : string; rank : int; core : int; now : int }
  | Link of Causal.kind * ctx_ref * ctx_ref
  | Find of ctx_ref
  | Last of string * string
  | Critical of ctx_ref
  | Enable of bool
  | Reset

let kinds = [ Causal.Send_recv; Causal.Inject_complete; Causal.Request_reply; Causal.Parent_child ]

let pp_ref = function
  | Known k -> Printf.sprintf "known#%d" k
  | Unknown id -> Printf.sprintf "unknown:%d" id
  | No_ctx -> "none"

let pp_causal_op = function
  | Mint m ->
    Printf.sprintf "mint%s %s/%s r%d c%d @%d" (if m.chain then "" else "(unchained)") m.cat
      m.name m.rank m.core m.now
  | Link (k, a, b) -> Printf.sprintf "link %s %s %s" (Causal.kind_name k) (pp_ref a) (pp_ref b)
  | Find r -> "find " ^ pp_ref r
  | Last (c, n) -> Printf.sprintf "last %s/%s" c n
  | Critical r -> "critical " ^ pp_ref r
  | Enable b -> Printf.sprintf "enable %b" b
  | Reset -> "reset"

let gen_causal_case =
  let open QCheck.Gen in
  let gen_ref =
    frequency
      [
        (6, map (fun k -> Known k) (int_bound 1000));
        (1, map (fun id -> Unknown id) (int_range 1 1000));
        (1, return No_ctx);
      ]
  in
  let gen_mint =
    map
      (fun (chain, cat, name, (rank, core), now) -> Mint { chain; cat; name; rank; core; now })
      (tup5
         (frequency [ (4, return true); (1, return false) ])
         (oneofl [ "syscall"; "cio"; "coll" ])
         (oneofl [ "entry"; "exit"; "deliver" ])
         (pair (int_range (-1) 2) (int_range (-1) 2))
         (int_bound 60))
  in
  let gen_op =
    frequency
      [
        (10, gen_mint);
        (4, map3 (fun k a b -> Link (k, a, b)) (oneofl kinds) gen_ref gen_ref);
        (1, map (fun r -> Find r) gen_ref);
        ( 1,
          map2
            (fun c n -> Last (c, n))
            (oneofl [ "syscall"; "cio"; "none" ])
            (oneofl [ "entry"; "exit"; "deliver" ]) );
        (1, map (fun r -> Critical r) gen_ref);
        (1, map (fun b -> Enable b) (frequency [ (1, return false); (3, return true) ]));
        (1, return Reset);
      ]
  in
  tup3 (int_range 0 5) (int_range 1 40) (list_size (int_range 0 80) gen_op)

let arb_causal_case =
  QCheck.make
    ~print:(fun (seed, max_nodes, ops) ->
      Printf.sprintf "seed %d, max_nodes %d: [%s]" seed max_nodes
        (String.concat "; " (List.map pp_causal_op ops)))
    ~shrink:QCheck.Shrink.(triple nil nil list)
    gen_causal_case

let causal_model_agrees ?(path_stride = 1) (seed, max_nodes, ops) =
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
  let g = Causal.create ~seed ~max_nodes ~enabled:true () in
  let m = Model.create ~seed ~max_nodes ~enabled:true in
  let resolve = function
    | No_ctx -> Causal.none
    | Unknown id -> id
    | Known k ->
      if m.n_nodes = 0 then Causal.none
      else (List.nth m.nodes_rev (k mod m.n_nodes)).Causal.id
  in
  let same_graph () =
    if Causal.node_count g <> m.n_nodes then fail "node_count";
    if Causal.edge_count g <> m.n_edges then fail "edge_count";
    if Causal.dropped g <> m.dropped then fail "dropped";
    if not (Fnv.equal (Causal.digest g) m.digest) then fail "digest"
  in
  List.iter
    (fun op ->
      (match op with
      | Mint { chain; cat; name; rank; core; now } ->
        let a = Causal.mint g ~chain ~cat ~name ~rank ~core ~now () in
        let b = Model.mint m ~chain ~cat ~name ~rank ~core ~now in
        if a <> b then fail "mint returned %d, model %d" a b
      | Link (k, a, b) ->
        let src = resolve a and dst = resolve b in
        Causal.link g k ~src ~dst;
        Model.link m k ~src ~dst
      | Find r ->
        let id = resolve r in
        if Causal.find g id <> Model.find m id then fail "find %d" id
      | Last (cat, name) ->
        if Causal.last_matching g ~cat ~name <> Model.last_matching m ~cat ~name then
          fail "last_matching %s/%s" cat name
      | Critical r ->
        let id = resolve r in
        if Causal.critical_path g id <> Model.critical_path m id then fail "critical_path %d" id
      | Enable b ->
        Causal.set_enabled g b;
        m.enabled <- b
      | Reset ->
        Causal.reset g;
        Model.reset m);
      same_graph ())
    ops;
  if Causal.nodes g <> Model.nodes m then fail "nodes";
  if Causal.edges g <> Model.edges m then fail "edges";
  List.iteri
    (fun i (n : Causal.node) ->
      if Causal.find g n.id <> Some n then fail "find %d" n.id;
      if i mod path_stride = 0 && Causal.critical_path g n.id <> Model.critical_path m n.id
      then fail "critical_path %d" n.id)
    (Model.nodes m);
  let cap f =
    let b = Buffer.create 256 in
    f b;
    Buffer.contents b
  in
  if cap (Causal.capture g) <> cap (Model.capture m) then fail "capture bytes";
  true

let prop_causal_model =
  QCheck.Test.make ~name:"causal store agrees with the list+Hashtbl model" ~count:10_000
    ~long_factor:10 arb_causal_case causal_model_agrees

(* The random cases stay far below one 1,024-entry chunk; this one fills
   more than four chunks of nodes and of edges, so the chunk tables grow,
   and hits the cap after them. *)
let test_causal_model_across_chunks () =
  let rand = Random.State.make [| 14 |] in
  let ops = QCheck.Gen.(list_repeat 450 (map (fun (_, _, ops) -> ops) gen_causal_case)) rand in
  let ops =
    (* paths are checked at the end, on every 97th node *)
    List.concat ops
    |> List.filter (function Reset | Enable false | Critical _ -> false | _ -> true)
  in
  let mints = List.length (List.filter (function Mint _ -> true | _ -> false) ops) in
  check_bool "enough mints to fill the cap" true (mints > 5000);
  check_bool "model agrees across chunk boundaries" true
    (causal_model_agrees ~path_stride:97 (3, 5000, ops))

let suite =
  [
    Alcotest.test_case "same seed, same causal digest" `Quick test_same_seed_same_digest;
    Alcotest.test_case "sim digest unperturbed by causal" `Quick
      test_sim_digest_unperturbed_by_causal;
    Alcotest.test_case "critical path: attribution tiles exactly" `Quick
      test_critical_path_attribution_exact;
    Alcotest.test_case "retransmit reuses ctx: one Request->Reply edge" `Quick
      test_retransmit_one_request_reply_edge;
    Alcotest.test_case "flow events: golden JSON" `Quick test_flow_event_golden;
    Alcotest.test_case "validator rejects raw control chars" `Quick
      test_validator_rejects_raw_control_chars;
    Alcotest.test_case "flow fields escaped against hostile names" `Quick
      test_flow_fields_escaped;
    Alcotest.test_case "span-ring overflow drop counter" `Quick
      test_ring_overflow_drop_counter;
    Alcotest.test_case "causal store agrees with the model across chunks" `Quick
      test_causal_model_across_chunks;
    QCheck_alcotest.to_alcotest prop_causal_model;
  ]
