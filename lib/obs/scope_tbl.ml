type 'a t = {
  mutable slots : int array;  (* scope number or -1; length a power of two *)
  mutable ranks : int array;  (* by scope number *)
  mutable cores : int array;
  mutable values : 'a array;
  mutable n : int;
}

let initial_slots = 16
let create () = { slots = Array.make initial_slots (-1); ranks = [||]; cores = [||]; values = [||]; n = 0 }
let get t i = t.values.(i)
let set t i v = t.values.(i) <- v

let hash rank core =
  let h = (rank * 0x9e3779b1) + core in
  h lxor (h lsr 16)

(* The slot holding (rank, core), or the empty slot where it belongs.
   The table is never more than half full, so the probe terminates. *)
let rec probe t mask rank core i =
  let s = Array.unsafe_get t.slots i in
  if s < 0 || (t.ranks.(s) = rank && t.cores.(s) = core) then i
  else probe t mask rank core ((i + 1) land mask)

let slot t ~rank ~core =
  let mask = Array.length t.slots - 1 in
  probe t mask rank core (hash rank core land mask)

let find t ~rank ~core = t.slots.(slot t ~rank ~core)

(* Double the per-scope arrays, padding with [v], and rehash. *)
let grow t v =
  let cap = max (initial_slots / 2) (2 * t.n) in
  let extend a pad = Array.init cap (fun i -> if i < t.n then a.(i) else pad) in
  t.ranks <- extend t.ranks 0;
  t.cores <- extend t.cores 0;
  t.values <- extend t.values v;
  t.slots <- Array.make (2 * cap) (-1);
  for s = 0 to t.n - 1 do
    t.slots.(slot t ~rank:t.ranks.(s) ~core:t.cores.(s)) <- s
  done

let add t ~rank ~core v =
  let s = t.n in
  if s = Array.length t.values then grow t v;
  t.slots.(slot t ~rank ~core) <- s;
  t.ranks.(s) <- rank;
  t.cores.(s) <- core;
  t.values.(s) <- v;
  t.n <- s + 1

let fold f t acc =
  let acc = ref acc in
  for s = 0 to t.n - 1 do
    acc := f ~rank:t.ranks.(s) ~core:t.cores.(s) t.values.(s) !acc
  done;
  !acc

let reset t =
  t.slots <- Array.make initial_slots (-1);
  t.ranks <- [||];
  t.cores <- [||];
  t.values <- [||];
  t.n <- 0
