open Bg_engine

(* Passive, like the rest of the observability layer: no events, no RNG,
   no architectural trace. Ids come from folding a seed and a mint
   counter through FNV, so a graph is a pure function of the seed and
   the (deterministic) simulation — never of wall-clock time. *)

type ctx = int

let none = 0

type kind = Send_recv | Inject_complete | Request_reply | Parent_child

let kind_name = function
  | Send_recv -> "send->recv"
  | Inject_complete -> "inject->complete"
  | Request_reply -> "request->reply"
  | Parent_child -> "parent->child"

let kind_code = function
  | Send_recv -> 0
  | Inject_complete -> 1
  | Request_reply -> 2
  | Parent_child -> 3

type node = {
  id : ctx;
  cat : string;
  name : string;
  rank : int;
  core : int;
  at : Cycles.t;
}

type edge = { kind : kind; src : ctx; dst : ctx }

(* The graph lives in columns, not records: each node is one slot in six
   parallel arrays (id, rank, core, at, cat, name) and each edge one slot
   in three (kind, src, dst). The arrays come in fixed-size chunks that
   are allocated once when the previous chunk fills and never copied, so
   minting allocates nothing but the occasional fresh chunk, and a large
   graph never holds two copies of itself. Node and edge records are
   built on demand by the query functions. *)

let chunk_bits = 10
let chunk_len = 1 lsl chunk_bits
let chunk_mask = chunk_len - 1

type node_chunk = {
  c_id : int array;
  c_rank : int array;
  c_core : int array;
  c_at : int array;
  c_cat : string array;
  c_name : string array;
}

type edge_chunk = { c_kind : int array; c_src : int array; c_dst : int array }

type t = {
  mutable enabled : bool;
  seed : int;
  seed_hash : Fnv.t;  (* FNV of the seed: the id stream's prefix *)
  id_hash : Fnv.Acc.t;  (* scratch for hashing the next id *)
  max_nodes : int;
  mutable node_chunks : node_chunk array;  (* grown by pointer-doubling *)
  mutable edge_chunks : edge_chunk array;
  mutable index : int array;
      (* open-addressed id -> node index, -1 when empty; never more than
         half full, length a power of two *)
  mutable n_nodes : int;
  mutable n_edges : int;
  mutable minted : int;  (* feeds the id stream; never reused *)
  mutable dropped : int;
  tails : ctx Key_tbl.t;  (* (rank, core, 0) -> last minted node *)
  digest : Fnv.Acc.t;
}

let initial_index = 64

let create ?(seed = 1) ?(max_nodes = 262_144) ?(enabled = false) () =
  if max_nodes <= 0 then invalid_arg "Causal.create: max_nodes";
  {
    enabled;
    seed;
    seed_hash = Fnv.add_int Fnv.empty seed;
    id_hash = Fnv.Acc.create ();
    max_nodes;
    node_chunks = [||];
    edge_chunks = [||];
    index = Array.make initial_index (-1);
    n_nodes = 0;
    n_edges = 0;
    minted = 0;
    dropped = 0;
    tails = Key_tbl.create ();
    digest = Fnv.Acc.create ();
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

let reset t =
  t.node_chunks <- [||];
  t.edge_chunks <- [||];
  t.index <- Array.make initial_index (-1);
  Key_tbl.reset t.tails;
  t.n_nodes <- 0;
  t.n_edges <- 0;
  t.minted <- 0;
  t.dropped <- 0;
  Fnv.Acc.set t.digest Fnv.empty

(* --- columns ----------------------------------------------------------- *)

let node_chunk t i = t.node_chunks.(i lsr chunk_bits)
let node_id t i = (node_chunk t i).c_id.(i land chunk_mask)
let node_at t i = (node_chunk t i).c_at.(i land chunk_mask)

let node t i =
  let c = node_chunk t i and j = i land chunk_mask in
  {
    id = c.c_id.(j);
    cat = c.c_cat.(j);
    name = c.c_name.(j);
    rank = c.c_rank.(j);
    core = c.c_core.(j);
    at = c.c_at.(j);
  }

let kind_of_code = function
  | 0 -> Send_recv
  | 1 -> Inject_complete
  | 2 -> Request_reply
  | _ -> Parent_child

let edge t i =
  let c = t.edge_chunks.(i lsr chunk_bits) and j = i land chunk_mask in
  { kind = kind_of_code c.c_kind.(j); src = c.c_src.(j); dst = c.c_dst.(j) }

(* Room for chunk [k] in a chunk table: only the pointer array doubles. *)
let with_room chunks k fresh =
  if k < Array.length chunks then chunks
  else Array.init (max 4 (2 * k)) (fun i -> if i < k then chunks.(i) else fresh)

let push_node t ~id ~cat ~name ~rank ~core ~at =
  let i = t.n_nodes in
  let k = i lsr chunk_bits and j = i land chunk_mask in
  if j = 0 then begin
    let c =
      {
        c_id = Array.make chunk_len 0;
        c_rank = Array.make chunk_len 0;
        c_core = Array.make chunk_len 0;
        c_at = Array.make chunk_len 0;
        c_cat = Array.make chunk_len "";
        c_name = Array.make chunk_len "";
      }
    in
    t.node_chunks <- with_room t.node_chunks k c;
    t.node_chunks.(k) <- c
  end;
  let c = t.node_chunks.(k) in
  c.c_id.(j) <- id;
  c.c_rank.(j) <- rank;
  c.c_core.(j) <- core;
  c.c_at.(j) <- at;
  c.c_cat.(j) <- cat;
  c.c_name.(j) <- name;
  t.n_nodes <- i + 1

let push_edge t kind ~src ~dst =
  let i = t.n_edges in
  let k = i lsr chunk_bits and j = i land chunk_mask in
  if j = 0 then begin
    let c =
      {
        c_kind = Array.make chunk_len 0;
        c_src = Array.make chunk_len 0;
        c_dst = Array.make chunk_len 0;
      }
    in
    t.edge_chunks <- with_room t.edge_chunks k c;
    t.edge_chunks.(k) <- c
  end;
  let c = t.edge_chunks.(k) in
  c.c_kind.(j) <- kind;
  c.c_src.(j) <- src;
  c.c_dst.(j) <- dst;
  t.n_edges <- i + 1

(* --- id index ---------------------------------------------------------- *)

(* Ids are FNV outputs, so their low bits already spread well. *)
let rec probe t mask id i =
  let s = Array.unsafe_get t.index i in
  if s < 0 || node_id t s = id then i else probe t mask id ((i + 1) land mask)

let slot t id =
  let mask = Array.length t.index - 1 in
  probe t mask id (id land mask)

(* Node index of [id], or -1. *)
let index_of t id = t.index.(slot t id)

let index_add t id i =
  if 2 * (t.n_nodes + 1) > Array.length t.index then begin
    t.index <- Array.make (2 * Array.length t.index) (-1);
    for s = 0 to t.n_nodes - 1 do
      t.index.(slot t (node_id t s)) <- s
    done
  end;
  t.index.(slot t id) <- i

(* --- recording --------------------------------------------------------- *)

(* Deterministic non-zero id: FNV(seed, counter), masked positive. A
   collision with a live id (astronomically unlikely but cheap to rule
   out) just advances the counter. *)
let rec fresh_id t =
  t.minted <- t.minted + 1;
  Fnv.Acc.set t.id_hash t.seed_hash;
  Fnv.Acc.add_int t.id_hash t.minted;
  let id = Fnv.Acc.to_int t.id_hash land max_int in
  if id = none || index_of t id >= 0 then fresh_id t else id

let record_edge t kind ~src ~dst =
  let code = kind_code kind in
  push_edge t code ~src ~dst;
  let d = t.digest in
  Fnv.Acc.add_int d code;
  Fnv.Acc.add_int d src;
  Fnv.Acc.add_int d dst

let link t kind ~src ~dst =
  if
    t.enabled && src <> none && dst <> none
    && index_of t src >= 0 && index_of t dst >= 0
  then record_edge t kind ~src ~dst

let mint t ?(chain = true) ~cat ~name ~rank ~core ~now () =
  if not t.enabled then none
  else if t.n_nodes >= t.max_nodes then begin
    t.dropped <- t.dropped + 1;
    none
  end
  else begin
    let id = fresh_id t in
    index_add t id t.n_nodes;
    push_node t ~id ~cat ~name ~rank ~core ~at:now;
    let d = t.digest in
    Fnv.Acc.add_int d id;
    Fnv.Acc.add_string d cat;
    Fnv.Acc.add_string d name;
    Fnv.Acc.add_int d rank;
    Fnv.Acc.add_int d core;
    Fnv.Acc.add_int d now;
    let s = Key_tbl.find t.tails rank core 0 in
    if s < 0 then ignore (Key_tbl.add t.tails rank core 0 id)
    else begin
      if chain then record_edge t Parent_child ~src:(Key_tbl.get t.tails s) ~dst:id;
      Key_tbl.set t.tails s id
    end;
    id
  end

let node_count t = t.n_nodes
let edge_count t = t.n_edges
let dropped t = t.dropped

let nodes t =
  let rec go acc i = if i < 0 then acc else go (node t i :: acc) (i - 1) in
  go [] (t.n_nodes - 1)

let edges t =
  let rec go acc i = if i < 0 then acc else go (edge t i :: acc) (i - 1) in
  go [] (t.n_edges - 1)

let find t id =
  let i = index_of t id in
  if i < 0 then None else Some (node t i)

let last_matching t ~cat ~name =
  let rec go i =
    if i < 0 then None
    else
      let c = node_chunk t i and j = i land chunk_mask in
      if String.equal c.c_cat.(j) cat && String.equal c.c_name.(j) name then Some c.c_id.(j)
      else go (i - 1)
  in
  go (t.n_nodes - 1)

let digest t = Fnv.Acc.get t.digest

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  Buffer.add_uint8 b (if t.enabled then 1 else 0);
  w_i t.seed;
  w_i t.max_nodes;
  w_i t.n_nodes;
  w_i t.n_edges;
  w_i t.minted;
  w_i t.dropped;
  Buffer.add_int64_le b (digest t);
  (* nodes and edges are already folded into the digest; only the
     per-scope chaining tails add restart-relevant state beyond it *)
  let tails =
    Key_tbl.fold (fun rank core _ id acc -> ((rank, core), id) :: acc) t.tails []
    |> List.sort compare
  in
  w_i (List.length tails);
  List.iter
    (fun ((rank, core), id) ->
      w_i rank;
      w_i core;
      w_i id)
    tails

(* --- critical path ----------------------------------------------------- *)

(* Follow the latest-arriving predecessor backward: at each node, the
   in-edge whose source has the greatest [at] is the dependency that
   actually gated progress (ties break toward the earliest-recorded
   edge, a deterministic order). *)
let critical_path t target =
  let ti = index_of t target in
  if ti < 0 then []
  else begin
    (* best predecessor by node index, -1 for none; edges are scanned
       oldest first so the earliest-recorded edge wins ties via the
       strict [>] below *)
    let preds = Array.make t.n_nodes (-1) in
    for e = 0 to t.n_edges - 1 do
      let c = t.edge_chunks.(e lsr chunk_bits) and j = e land chunk_mask in
      let si = index_of t c.c_src.(j) in
      let di = index_of t c.c_dst.(j) in
      if si >= 0 && di >= 0 then begin
        let best = preds.(di) in
        if best < 0 || node_at t si > node_at t best then preds.(di) <- si
      end
    done;
    let visited = Bytes.make t.n_nodes '\000' in
    let rec walk acc i =
      if Bytes.get visited i <> '\000' then acc
      else begin
        Bytes.set visited i '\001';
        let p = preds.(i) in
        if p >= 0 && node_at t p <= node_at t i then walk (node t i :: acc) p
        else node t i :: acc
      end
    in
    walk [] ti
  end

(* --- path attribution -------------------------------------------------- *)

type attribution = {
  total : int;
  ledger : (Accounting.state * int) list;
  network : int;
  per_rank : (int * int) list;
  straggler : int;
  dominant : string;
}

(* Split [d] cycles across weighted states with largest-remainder
   rounding, so the parts sum to [d] exactly. Weights of zero total fall
   back entirely to App — an unledgered core's time is app time. *)
let split_by_weights d (weights : (Accounting.state * int) list) =
  let wtot = List.fold_left (fun a (_, w) -> a + w) 0 weights in
  if d = 0 then []
  else if wtot = 0 then [ (Accounting.App, d) ]
  else begin
    let raw =
      List.map
        (fun (st, w) ->
          let num = d * w in
          (st, num / wtot, num mod wtot))
        weights
    in
    let floor_sum = List.fold_left (fun a (_, q, _) -> a + q) 0 raw in
    let leftover = d - floor_sum in
    (* hand the leftover cycles to the largest remainders; ties resolve
       by state order, which is fixed *)
    let order =
      List.mapi (fun i (st, q, r) -> (i, st, q, r)) raw
      |> List.sort (fun (i, _, _, ra) (j, _, _, rb) ->
             if ra <> rb then compare rb ra else compare i j)
    in
    let bumped =
      List.mapi (fun pos (i, st, q, _) -> (i, st, if pos < leftover then q + 1 else q)) order
      |> List.sort (fun (i, _, _) (j, _, _) -> compare i j)
    in
    List.filter_map (fun (_, st, q) -> if q > 0 then Some (st, q) else None) bumped
  end

let attribute_path t acct path =
  ignore t;
  let entries = Accounting.entries acct in
  let weights_for ~rank ~core =
    let of_entry (e : Accounting.entry) =
      List.map (fun st -> (st, Accounting.cycles e st)) Accounting.all_states
    in
    match
      List.find_opt (fun (e : Accounting.entry) -> e.rank = rank && e.core = core) entries
    with
    | Some e -> of_entry e
    | None ->
      let mine = List.filter (fun (e : Accounting.entry) -> e.rank = rank) entries in
      if mine = [] then []
      else Accounting.totals mine
  in
  let ledger_acc = Hashtbl.create 8 in
  let rank_acc = Hashtbl.create 8 in
  let bump tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := !r + v
    | None -> Hashtbl.add tbl k (ref v)
  in
  let network = ref 0 in
  let rec segments = function
    | a :: (b :: _ as rest) ->
      let d = max 0 (b.at - a.at) in
      (if a.rank <> b.rank || a.rank < 0 || b.rank < 0 then network := !network + d
       else begin
         bump rank_acc a.rank d;
         List.iter (fun (st, c) -> bump ledger_acc st c)
           (split_by_weights d (weights_for ~rank:b.rank ~core:b.core))
       end);
      segments rest
    | _ -> ()
  in
  segments path;
  let total =
    match (path, List.rev path) with
    | first :: _, last :: _ -> max 0 (last.at - first.at)
    | _ -> 0
  in
  let ledger =
    List.map
      (fun st ->
        (st, match Hashtbl.find_opt ledger_acc st with Some r -> !r | None -> 0))
      Accounting.all_states
  in
  let per_rank =
    Hashtbl.fold (fun r c acc -> (r, !c) :: acc) rank_acc []
    |> List.sort compare
  in
  let straggler =
    List.fold_left
      (fun (br, bc) (r, c) -> if c > bc then (r, c) else (br, bc))
      (-1, 0) per_rank
    |> fst
  in
  let dominant =
    let buckets =
      ("network", !network)
      :: List.map (fun (st, c) -> (Accounting.state_name st, c)) ledger
    in
    List.fold_left
      (fun (bn, bc) (n, c) -> if c > bc then (n, c) else (bn, bc))
      ("none", 0) buckets
    |> fst
  in
  { total; ledger; network = !network; per_rank; straggler; dominant }

let pp_attribution ppf a =
  Format.fprintf ppf "path %d cycles: network %d" a.total a.network;
  List.iter
    (fun (st, c) ->
      if c > 0 then Format.fprintf ppf ", %s %d" (Accounting.state_name st) c)
    a.ledger;
  Format.fprintf ppf "; straggler rank %d, dominant %s" a.straggler a.dominant
