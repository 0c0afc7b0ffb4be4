type allocation = {
  id : int;
  base : int * int * int;
  shape : int * int * int;
  ranks : int list;
}

type t = {
  dims : int * int * int;
  occupied : bool array;  (* indexed by rank *)
  down : bool array;      (* RAS marked the node dead; never allocate *)
  spare : bool array;     (* held in reserve; activated by [substitute] *)
  mutable substitutions : int;
  mutable live : allocation list;
  mutable next_id : int;
}

let create ~dims =
  let x, y, z = dims in
  if x <= 0 || y <= 0 || z <= 0 then invalid_arg "Partition.create";
  {
    dims;
    occupied = Array.make (x * y * z) false;
    down = Array.make (x * y * z) false;
    spare = Array.make (x * y * z) false;
    substitutions = 0;
    live = [];
    next_id = 1;
  }

let dims t = t.dims

let rank_of t (cx, cy, cz) =
  let x, y, _ = t.dims in
  cx + (cy * x) + (cz * x * y)

(* Member ranks of a box, ascending: the z-major walk (x fastest) visits
   them in rank order already, so nothing needs sorting. Built only for
   a box being committed or asked for by name, never to probe one. *)
let box_ranks t (bx, by, bz) (sx, sy, sz) =
  let acc = ref [] in
  for cz = bz + sz - 1 downto bz do
    for cy = by + sy - 1 downto by do
      for cx = bx + sx - 1 downto bx do
        acc := rank_of t (cx, cy, cz) :: !acc
      done
    done
  done;
  !acc

let rank_free t r = (not t.occupied.(r)) && (not t.down.(r)) && not t.spare.(r)

let box_in_bounds t (bx, by, bz) (sx, sy, sz) =
  let x, y, z = t.dims in
  bx >= 0 && by >= 0 && bz >= 0 && bx + sx <= x && by + sy <= y && bz + sz <= z

(* Is every member of the in-bounds box at (bx, by, bz) free? Walks the
   coordinates in rank order and stops at the first busy rank. Plain
   loops over local refs, so a probe allocates nothing. *)
let box_free t bx by bz sx sy sz =
  let x, y, _ = t.dims in
  let free = ref true and dz = ref 0 in
  while !free && !dz < sz do
    let dy = ref 0 in
    while !free && !dy < sy do
      let row = bx + ((by + !dy) * x) + ((bz + !dz) * x * y) in
      let dx = ref 0 in
      while !free && !dx < sx do
        if not (rank_free t (row + !dx)) then free := false;
        incr dx
      done;
      incr dy
    done;
    incr dz
  done;
  !free

(* A negative extent can pass [box_in_bounds]; it names no box. The
   probes look at z, then y, then x, and a zero extent found first makes
   the box empty, so only a negative extent reached before any zero one
   is rejected. *)
let check_extents fn (sx, sy, sz) =
  if sz < 0 || (sz > 0 && (sy < 0 || (sy > 0 && sx < 0))) then invalid_arg fn

let free_box t ~base ~shape =
  box_in_bounds t base shape
  && begin
    check_extents "Partition.free_box: negative extent" shape;
    let bx, by, bz = base and sx, sy, sz = shape in
    box_free t bx by bz sx sy sz
  end

let ranks_of_box t ~base ~shape =
  if not (box_in_bounds t base shape) then invalid_arg "Partition.ranks_of_box";
  check_extents "Partition.ranks_of_box: negative extent" shape;
  box_ranks t base shape

let shape_fits t (sx, sy, sz) =
  let x, y, z = t.dims in
  sx > 0 && sy > 0 && sz > 0 && sx <= x && sy <= y && sz <= z

let free_bases t ~shape =
  if not (shape_fits t shape) then []
  else begin
    let x, y, z = t.dims in
    let sx, sy, sz = shape in
    let acc = ref [] in
    for bz = z - sz downto 0 do
      for by = y - sy downto 0 do
        for bx = x - sx downto 0 do
          if box_free t bx by bz sx sy sz then acc := (bx, by, bz) :: !acc
        done
      done
    done;
    !acc
  end

(* The first free base in z-major (rank) order, as the rank of its
   corner, or -1. The scan allocates nothing. *)
let first_free_rank t (sx, sy, sz) =
  let x, y, z = t.dims in
  let found = ref (-1) and bz = ref 0 in
  while !found < 0 && !bz <= z - sz do
    let by = ref 0 in
    while !found < 0 && !by <= y - sy do
      let bx = ref 0 in
      while !found < 0 && !bx <= x - sx do
        if box_free t !bx !by !bz sx sy sz then found := !bx + (!by * x) + (!bz * x * y);
        incr bx
      done;
      incr by
    done;
    incr bz
  done;
  !found

let first_free_base t ~shape =
  if not (shape_fits t shape) then None
  else
    match first_free_rank t shape with
    | -1 -> None
    | r ->
      let x, y, _ = t.dims in
      Some (r mod x, r / x mod y, r / (x * y))

let commit t base shape ranks =
  List.iter (fun r -> t.occupied.(r) <- true) ranks;
  let a = { id = t.next_id; base; shape; ranks } in
  t.next_id <- t.next_id + 1;
  t.live <- a :: t.live;
  Ok a

let allocate ?base t ~shape =
  let x, y, z = t.dims in
  let sx, sy, sz = shape in
  if sx <= 0 || sy <= 0 || sz <= 0 then Error "bad shape"
  else if sx > x || sy > y || sz > z then Error "shape exceeds the machine"
  else
    match base with
    | Some b ->
      (* placement-directed: the caller (a torus-aware placer) already
         chose the box; allocate exactly there or fail *)
      if free_box t ~base:b ~shape then commit t b shape (box_ranks t b shape)
      else Error "requested base not free"
    | None -> (
      (* first fit over base coordinates, z-major like rank order *)
      match first_free_base t ~shape with
      | None -> Error "no free partition of that shape"
      | Some base -> commit t base shape (box_ranks t base shape))

let release t id =
  match List.find_opt (fun a -> a.id = id) t.live with
  | None -> invalid_arg "Partition.release: unknown id"
  | Some a ->
    List.iter (fun r -> t.occupied.(r) <- false) a.ranks;
    t.live <- List.filter (fun x -> x.id <> id) t.live

let free_nodes t =
  let free = ref 0 in
  Array.iteri
    (fun r o -> if (not o) && (not t.down.(r)) && not t.spare.(r) then incr free)
    t.occupied;
  !free

let allocated t = List.rev t.live
let total_nodes t = Array.length t.occupied

let set_down t ~rank down =
  if rank < 0 || rank >= Array.length t.down then invalid_arg "Partition.set_down";
  t.down.(rank) <- down

let is_down t ~rank = t.down.(rank)

let down_nodes t =
  let acc = ref [] in
  Array.iteri (fun r d -> if d then acc := r :: !acc) t.down;
  List.rev !acc

(* -- spare pool ------------------------------------------------------

   Spares sit outside the allocatable pool until a node death spends
   one: [substitute] returns the lowest-ranked spare to the pool so the
   next allocation finds a full-strength machine even though the dead
   rank never comes back. *)

let set_spare t ~rank flag =
  if rank < 0 || rank >= Array.length t.spare then invalid_arg "Partition.set_spare";
  if flag && (t.occupied.(rank) || t.down.(rank)) then
    invalid_arg "Partition.set_spare: rank is occupied or down";
  t.spare.(rank) <- flag

let spare_ranks t =
  let acc = ref [] in
  Array.iteri (fun r s -> if s then acc := r :: !acc) t.spare;
  List.rev !acc

let substitutions t = t.substitutions

let substitute t ~dead:_ =
  let rec find r =
    if r >= Array.length t.spare then None
    else if t.spare.(r) && not t.down.(r) then begin
      t.spare.(r) <- false;
      t.substitutions <- t.substitutions + 1;
      Some r
    end
    else find (r + 1)
  in
  find 0

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let x, y, z = t.dims in
  w_i x;
  w_i y;
  w_i z;
  w_i t.next_id;
  w_i t.substitutions;
  Array.iter (fun o -> Buffer.add_uint8 b (if o then 1 else 0)) t.occupied;
  Array.iter (fun d -> Buffer.add_uint8 b (if d then 1 else 0)) t.down;
  Array.iter (fun s -> Buffer.add_uint8 b (if s then 1 else 0)) t.spare;
  let live = allocated t in
  w_i (List.length live);
  List.iter
    (fun a ->
      w_i a.id;
      let bx, by, bz = a.base in
      let sx, sy, sz = a.shape in
      w_i bx;
      w_i by;
      w_i bz;
      w_i sx;
      w_i sy;
      w_i sz;
      w_i (List.length a.ranks);
      List.iter w_i a.ranks)
    live
