(* Slicing-by-8: eight 256-entry tables in one flat array, table [k] at
   [k * 256]. Table 0 is the classic byte-at-a-time table; entry [n] of
   table [k] is the CRC register after feeding byte [n] followed by [k]
   zero bytes, so one step folds eight input bytes with eight lookups. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let[@inline] tab k i = Array.unsafe_get tables ((k * 256) + i)

(* Each 32-bit word is read as an [int32] and widened with its sign bits
   masked off: all 32 bits survive on a 63-bit int. *)
let[@inline] word data i = Int32.to_int (Bytes.get_int32_le data i) land 0xffffffff

let update crc data ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length data - len then invalid_arg "Crc32.update";
  let c = ref (crc lxor 0xffffffff) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let one = word data !i lxor !c and two = word data (!i + 4) in
    c :=
      tab 7 (one land 0xff)
      lxor tab 6 ((one lsr 8) land 0xff)
      lxor tab 5 ((one lsr 16) land 0xff)
      lxor tab 4 (one lsr 24)
      lxor tab 3 (two land 0xff)
      lxor tab 2 ((two lsr 8) land 0xff)
      lxor tab 1 ((two lsr 16) land 0xff)
      lxor tab 0 (two lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := tab 0 ((!c lxor Bytes.get_uint8 data j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let compute data ~pos ~len = update 0 data ~pos ~len
