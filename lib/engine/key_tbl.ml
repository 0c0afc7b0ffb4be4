type 'a t = {
  mutable slots : int array;  (* entry index or -1; length a power of two *)
  mutable k1 : int array;  (* by entry index, entries 0 .. n-1 live *)
  mutable k2 : int array;
  mutable k3 : int array;
  mutable values : 'a array;
  mutable n : int;
}

let initial_slots = 16

let create () =
  { slots = Array.make initial_slots (-1); k1 = [||]; k2 = [||]; k3 = [||]; values = [||]; n = 0 }

let length t = t.n
let get t i = t.values.(i)
let set t i v = t.values.(i) <- v

let[@inline] hash a b c =
  let h = (((a * 0x9e3779b1) + b) * 0x85ebca6b) + c in
  h lxor (h lsr 16)

(* The slot holding (a, b, c), or the empty slot where it belongs. The
   table is never more than half full, so the probe terminates. *)
let rec probe t mask a b c i =
  let s = Array.unsafe_get t.slots i in
  if s < 0 || (t.k1.(s) = a && t.k2.(s) = b && t.k3.(s) = c) then i
  else probe t mask a b c ((i + 1) land mask)

let slot t a b c =
  let mask = Array.length t.slots - 1 in
  probe t mask a b c (hash a b c land mask)

let find t a b c = t.slots.(slot t a b c)

(* Double the entry columns, padding with [v], and rehash. *)
let grow t v =
  let cap = max (initial_slots / 2) (2 * t.n) in
  let extend a pad = Array.init cap (fun i -> if i < t.n then a.(i) else pad) in
  t.k1 <- extend t.k1 0;
  t.k2 <- extend t.k2 0;
  t.k3 <- extend t.k3 0;
  t.values <- extend t.values v;
  t.slots <- Array.make (2 * cap) (-1);
  for e = 0 to t.n - 1 do
    t.slots.(slot t t.k1.(e) t.k2.(e) t.k3.(e)) <- e
  done

let add t a b c v =
  let e = t.n in
  if e = Array.length t.values then grow t v;
  t.slots.(slot t a b c) <- e;
  t.k1.(e) <- a;
  t.k2.(e) <- b;
  t.k3.(e) <- c;
  t.values.(e) <- v;
  t.n <- e + 1;
  e

let replace t a b c v =
  let e = find t a b c in
  if e >= 0 then t.values.(e) <- v else ignore (add t a b c v)

(* Empty slot [s] by shifting later members of its probe run back, so
   every remaining key stays reachable from its home slot. *)
let delete_slot t s =
  let mask = Array.length t.slots - 1 in
  let hole = ref s and j = ref ((s + 1) land mask) in
  while t.slots.(!j) >= 0 do
    let e = t.slots.(!j) in
    let home = hash t.k1.(e) t.k2.(e) t.k3.(e) land mask in
    let movable = if !hole <= !j then home <= !hole || home > !j else home <= !hole && home > !j in
    if movable then begin
      t.slots.(!hole) <- e;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  t.slots.(!hole) <- -1

let remove t a b c =
  let s = slot t a b c in
  let e = t.slots.(s) in
  if e >= 0 then begin
    delete_slot t s;
    let last = t.n - 1 in
    if e < last then begin
      t.slots.(slot t t.k1.(last) t.k2.(last) t.k3.(last)) <- e;
      t.k1.(e) <- t.k1.(last);
      t.k2.(e) <- t.k2.(last);
      t.k3.(e) <- t.k3.(last);
      t.values.(e) <- t.values.(last)
    end;
    t.n <- last
  end

let fold f t acc =
  let acc = ref acc in
  for e = 0 to t.n - 1 do
    acc := f t.k1.(e) t.k2.(e) t.k3.(e) t.values.(e) !acc
  done;
  !acc

let reset t =
  t.slots <- Array.make initial_slots (-1);
  t.k1 <- [||];
  t.k2 <- [||];
  t.k3 <- [||];
  t.values <- [||];
  t.n <- 0
