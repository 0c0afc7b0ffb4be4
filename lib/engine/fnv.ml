type t = int64

let empty = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* Every fold below keeps its running hash in a local [int64], in
   straight-line code or a [for] loop, so the compiler leaves it unboxed:
   only the returned [t] is allocated, never one box per byte. *)

let[@inline] add_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* [asr] on the native int yields the same eight bytes as the
   sign-extended [Int64.of_int x], without building the int64. *)
let[@inline] fold_int h x =
  let h = add_byte h x in
  let h = add_byte h (x asr 8) in
  let h = add_byte h (x asr 16) in
  let h = add_byte h (x asr 24) in
  let h = add_byte h (x asr 32) in
  let h = add_byte h (x asr 40) in
  let h = add_byte h (x asr 48) in
  add_byte h (x asr 56)

let[@inline] fold_int64 h x =
  let h = add_byte h (Int64.to_int x) in
  let h = add_byte h (Int64.to_int (Int64.shift_right_logical x 8)) in
  let h = add_byte h (Int64.to_int (Int64.shift_right_logical x 16)) in
  let h = add_byte h (Int64.to_int (Int64.shift_right_logical x 24)) in
  let h = add_byte h (Int64.to_int (Int64.shift_right_logical x 32)) in
  let h = add_byte h (Int64.to_int (Int64.shift_right_logical x 40)) in
  let h = add_byte h (Int64.to_int (Int64.shift_right_logical x 48)) in
  add_byte h (Int64.to_int (Int64.shift_right_logical x 56))

let[@inline] fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := add_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let add_int h x = fold_int h x
let add_int64 h x = fold_int64 h x
let add_string h s = fold_string h s
let add_bytes h b = add_string h (Bytes.unsafe_to_string b)
let to_hex h = Printf.sprintf "%016Lx" h
let equal = Int64.equal
let pp ppf h = Format.pp_print_string ppf (to_hex h)

(* The running hash lives unboxed in 8 bytes, as [Rng]'s state does: a
   [mutable t] field would box a fresh int64 on every step. *)
module Acc = struct
  type nonrec t = Bytes.t

  let[@inline] get a = Bytes.get_int64_ne a 0
  let[@inline] set a h = Bytes.set_int64_ne a 0 h

  let create () =
    let a = Bytes.create 8 in
    set a empty;
    a

  let add_int a x = set a (fold_int (get a) x)
  let add_int64 a x = set a (fold_int64 (get a) x)
  let add_string a s = set a (fold_string (get a) s)
  let to_int a = Int64.to_int (get a)
end
