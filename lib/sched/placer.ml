module Partition = Bg_control.Partition
module Torus = Bg_hw.Torus

let surface (a, b, c) = 2 * ((a * b) + (b * c) + (a * c))

let shapes_for ~dims ~nodes =
  let dx, dy, dz = dims in
  let shapes = ref [] in
  for a = 1 to min nodes dx do
    if nodes mod a = 0 then begin
      let rest = nodes / a in
      for b = 1 to min rest dy do
        if rest mod b = 0 then begin
          let c = rest / b in
          if c <= dz then shapes := (a, b, c) :: !shapes
        end
      done
    end
  done;
  List.sort
    (fun s1 s2 -> compare (surface s1, s1) (surface s2, s2))
    !shapes

let canonical_shape ~dims ~nodes =
  match shapes_for ~dims ~nodes with [] -> None | s :: _ -> Some s

let in_flight_penalty = 10_000

let rank_score torus rank =
  let acc = ref 0 in
  for dir = 0 to 5 do
    acc :=
      !acc
      + Torus.link_busy_cycles torus ~rank ~dir
      + (in_flight_penalty * Torus.link_in_flight torus ~rank ~dir)
  done;
  !acc

let congestion_score torus partition ~base ~shape =
  List.fold_left
    (fun acc rank -> acc + rank_score torus rank)
    0
    (Partition.ranks_of_box partition ~base ~shape)

(* [congestion_score] of an in-bounds box, walked coordinate by
   coordinate in rank order instead of through a rank list: what
   [place] runs for every free base. *)
let box_score torus x y bx by bz sx sy sz =
  let acc = ref 0 in
  for cz = bz to bz + sz - 1 do
    for cy = by to by + sy - 1 do
      for cx = bx to bx + sx - 1 do
        acc := !acc + rank_score torus (cx + (cy * x) + (cz * x * y))
      done
    done
  done;
  !acc

type placement = { shape : int * int * int; base : (int * int * int) option }

(* The least-congested base of a rank-ordered list, if any; ties keep
   the earlier (lower) base. *)
let quietest_base torus x y (sx, sy, sz) bases =
  let score (bx, by, bz) = box_score torus x y bx by bz sx sy sz in
  let rec go best best_score = function
    | [] -> best
    | base :: rest ->
      let s = score base in
      if s < best_score then go base s rest else go best best_score rest
  in
  match bases with [] -> None | b :: rest -> Some (go b (score b) rest)

let place torus partition ~nodes ~comm =
  let dims = Torus.dims torus in
  let shapes = shapes_for ~dims ~nodes in
  if not comm then
    (* compute-only: cheapest path — most compact shape that fits now,
       allocator's own first-fit base *)
    List.find_map
      (fun shape ->
        match Partition.first_free_base partition ~shape with
        | None -> None
        | Some _ -> Some { shape; base = None })
      shapes
  else begin
    (* communication-heavy: most compact shape with a free box, scored
       base. free_bases is rank-ordered, so min-score ties resolve to
       the lowest base deterministically. *)
    let x, y, _ = Partition.dims partition in
    List.find_map
      (fun shape ->
        match quietest_base torus x y shape (Partition.free_bases partition ~shape) with
        | None -> None
        | Some base -> Some { shape; base = Some base })
      shapes
  end
