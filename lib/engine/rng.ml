(* The SplitMix64 position lives unboxed in 8 bytes: a [mutable int64]
   field would box a fresh int64 on every draw. *)
type t = { st : Bytes.t; seed : int64 }

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let st = Bytes.create 8 in
  Bytes.set_int64_ne st 0 seed;
  { st; seed }

let state t = Bytes.get_int64_ne t.st 0
let seed t = t.seed

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t.st 0) 0x9e3779b97f4a7c15L in
  Bytes.set_int64_ne t.st 0 s;
  mix s

let seed_of_string s = Fnv.add_string Fnv.empty s

let split t label =
  let child_seed = mix (Int64.logxor t.seed (seed_of_string label)) in
  create child_seed

let int t bound =
  assert (bound > 0);
  let x = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  x mod bound

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t ~mu ~sigma =
  (* Box-Muller; reject u1 = 0 to keep log finite. *)
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-300 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let exponential t ~mean =
  let rec draw () =
    let u = float t 1.0 in
    if u <= 1e-300 then draw () else u
  in
  -.mean *. log (draw ())
