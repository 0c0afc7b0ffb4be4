(* Reference models for the partition allocator and the torus-aware
   placer: the list-based code both used before their scans stopped
   allocating, kept verbatim in behaviour. Every probe builds the box's
   sorted rank list and tests it with [List.for_all]; every score folds
   over [ranks_of_box]. test_control checks [Bg_control.Partition]
   against [Partition] and test_sched checks [Bg_sched.Placer] against
   [Placer]. *)

module Partition = struct
  type allocation = {
    id : int;
    base : int * int * int;
    shape : int * int * int;
    ranks : int list;
  }

  type t = {
    dims : int * int * int;
    occupied : bool array;
    down : bool array;
    spare : bool array;
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

  let rank_of t (cx, cy, cz) =
    let x, y, _ = t.dims in
    cx + (cy * x) + (cz * x * y)

  let box_ranks t (bx, by, bz) (sx, sy, sz) =
    List.concat_map
      (fun dz ->
        List.concat_map
          (fun dy -> List.init sx (fun dx -> rank_of t (bx + dx, by + dy, bz + dz)))
          (List.init sy Fun.id))
      (List.init sz Fun.id)
    |> List.sort compare

  let rank_free t r = (not t.occupied.(r)) && (not t.down.(r)) && not t.spare.(r)

  let box_in_bounds t (bx, by, bz) (sx, sy, sz) =
    let x, y, z = t.dims in
    bx >= 0 && by >= 0 && bz >= 0 && bx + sx <= x && by + sy <= y && bz + sz <= z

  let free_box t ~base ~shape =
    box_in_bounds t base shape && List.for_all (rank_free t) (box_ranks t base shape)

  let ranks_of_box t ~base ~shape =
    if not (box_in_bounds t base shape) then invalid_arg "Partition.ranks_of_box"
    else box_ranks t base shape

  let free_bases t ~shape =
    let x, y, z = t.dims in
    let sx, sy, sz = shape in
    if sx <= 0 || sy <= 0 || sz <= 0 || sx > x || sy > y || sz > z then []
    else begin
      let acc = ref [] in
      for bz = z - sz downto 0 do
        for by = y - sy downto 0 do
          for bx = x - sx downto 0 do
            if free_box t ~base:(bx, by, bz) ~shape then acc := (bx, by, bz) :: !acc
          done
        done
      done;
      !acc
    end

  let first_free_base t ~shape = match free_bases t ~shape with [] -> None | b :: _ -> Some b

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
        if free_box t ~base:b ~shape then commit t b shape (box_ranks t b shape)
        else Error "requested base not free"
      | None -> begin
        let found = ref None in
        (try
           for bz = 0 to z - sz do
             for by = 0 to y - sy do
               for bx = 0 to x - sx do
                 if !found = None then begin
                   let ranks = box_ranks t (bx, by, bz) shape in
                   if List.for_all (rank_free t) ranks then begin
                     found := Some ((bx, by, bz), ranks);
                     raise Exit
                   end
                 end
               done
             done
           done
         with Exit -> ());
        match !found with
        | None -> Error "no free partition of that shape"
        | Some (base, ranks) -> commit t base shape ranks
      end

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

  let set_down t ~rank down =
    if rank < 0 || rank >= Array.length t.down then invalid_arg "Partition.set_down";
    t.down.(rank) <- down

  let set_spare t ~rank flag =
    if rank < 0 || rank >= Array.length t.spare then invalid_arg "Partition.set_spare";
    if flag && (t.occupied.(rank) || t.down.(rank)) then
      invalid_arg "Partition.set_spare: rank is occupied or down";
    t.spare.(rank) <- flag

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
end

module Placer = struct
  module Torus = Bg_hw.Torus

  let in_flight_penalty = 10_000

  let congestion_score torus partition ~base ~shape =
    let ranks = Partition.ranks_of_box partition ~base ~shape in
    List.fold_left
      (fun acc rank ->
        let per_rank = ref 0 in
        for dir = 0 to 5 do
          per_rank :=
            !per_rank
            + Torus.link_busy_cycles torus ~rank ~dir
            + (in_flight_penalty * Torus.link_in_flight torus ~rank ~dir)
        done;
        acc + !per_rank)
      0 ranks

  (* (shape, base) as [Bg_sched.Placer.place] returns them *)
  let place torus partition ~nodes ~comm =
    let shapes = Bg_sched.Placer.shapes_for ~dims:(Torus.dims torus) ~nodes in
    if not comm then
      List.find_map
        (fun shape ->
          match Partition.free_bases partition ~shape with
          | [] -> None
          | _ -> Some (shape, None))
        shapes
    else
      List.find_map
        (fun shape ->
          match Partition.free_bases partition ~shape with
          | [] -> None
          | bases ->
            let best =
              List.fold_left
                (fun acc base ->
                  let score = congestion_score torus partition ~base ~shape in
                  match acc with
                  | Some (_, best_score) when best_score <= score -> acc
                  | _ -> Some (base, score))
                None bases
            in
            Option.map (fun (base, _) -> (shape, Some base)) best)
        shapes
end
