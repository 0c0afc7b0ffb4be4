type 'a t = {
  mutable slots : int array;  (* entry index or -1; length a power of two *)
  mutable subsystems : string array;  (* by entry index *)
  mutable names : string array;
  mutable ranks : int array;
  mutable cores : int array;
  mutable values : 'a array;
  mutable n : int;
}

let initial_slots = 16

let create () =
  {
    slots = Array.make initial_slots (-1);
    subsystems = [||];
    names = [||];
    ranks = [||];
    cores = [||];
    values = [||];
    n = 0;
  }

let get t e = t.values.(e)
let set t e v = t.values.(e) <- v

let str_hash s =
  let h = ref 0 in
  for i = 0 to String.length s - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h

let hash subsystem name rank core =
  let h = (((((str_hash subsystem * 0x9e3779b1) + str_hash name) * 0x85ebca6b) + rank) * 31) + core in
  h lxor (h lsr 16)

(* The slot holding the key, or the empty slot where it belongs. The
   table is never more than half full, so the probe terminates. *)
let rec probe t mask subsystem name rank core i =
  let e = Array.unsafe_get t.slots i in
  if
    e < 0
    || t.ranks.(e) = rank
       && t.cores.(e) = core
       && String.equal t.names.(e) name
       && String.equal t.subsystems.(e) subsystem
  then i
  else probe t mask subsystem name rank core ((i + 1) land mask)

let slot t subsystem name rank core =
  let mask = Array.length t.slots - 1 in
  probe t mask subsystem name rank core (hash subsystem name rank core land mask)

let find t ~subsystem ~name ~rank ~core = t.slots.(slot t subsystem name rank core)

(* Double the entry columns, padding with [v], and rehash. *)
let grow t v =
  let cap = max (initial_slots / 2) (2 * t.n) in
  let extend a pad = Array.init cap (fun i -> if i < t.n then a.(i) else pad) in
  t.subsystems <- extend t.subsystems "";
  t.names <- extend t.names "";
  t.ranks <- extend t.ranks 0;
  t.cores <- extend t.cores 0;
  t.values <- extend t.values v;
  t.slots <- Array.make (2 * cap) (-1);
  for e = 0 to t.n - 1 do
    t.slots.(slot t t.subsystems.(e) t.names.(e) t.ranks.(e) t.cores.(e)) <- e
  done

let add t ~subsystem ~name ~rank ~core v =
  let e = t.n in
  if e = Array.length t.values then grow t v;
  t.slots.(slot t subsystem name rank core) <- e;
  t.subsystems.(e) <- subsystem;
  t.names.(e) <- name;
  t.ranks.(e) <- rank;
  t.cores.(e) <- core;
  t.values.(e) <- v;
  t.n <- e + 1;
  e

let fold f t acc =
  let acc = ref acc in
  for e = 0 to t.n - 1 do
    acc :=
      f ~subsystem:t.subsystems.(e) ~name:t.names.(e) ~rank:t.ranks.(e) ~core:t.cores.(e)
        t.values.(e) !acc
  done;
  !acc

let reset t =
  t.slots <- Array.make initial_slots (-1);
  t.subsystems <- [||];
  t.names <- [||];
  t.ranks <- [||];
  t.cores <- [||];
  t.values <- [||];
  t.n <- 0
