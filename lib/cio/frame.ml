type kind = Request | Reply | Ack

type t = {
  kind : kind;
  rank : int;
  pid : int;
  tid : int;
  seq : int;
  ctx : int;
  payload : bytes;
}

type error = Malformed of string | Corrupt

let error_message = function
  | Malformed m -> m
  | Corrupt -> "CRC mismatch"

(* --- wire layout ------------------------------------------------------

   0        magic (0xc9)
   1        kind
   2..5     crc32, little-endian — computed over the ENTIRE frame with
            these four bytes zeroed, so a single bit flip anywhere
            (magic, kind, crc field, header, payload) is always detected
   6..9     rank (u32)
   10..17   pid
   18..25   tid
   26..33   seq
   34..37   payload length (u32)
   38..45   causal context (opaque; 0 = none)
   46..     payload

   rank and payload length are 32-bit so the causal context rides in the
   header without growing it: the frame is exactly as long as the
   pre-causal format, which keeps collective-tree serialization timing —
   and therefore the zero-knob trace digest — unchanged.                   *)

let magic = 0xc9
let header_bytes = 46

let kind_byte = function Request -> 0 | Reply -> 1 | Ack -> 2

let byte_kind = function
  | 0 -> Some Request
  | 1 -> Some Reply
  | 2 -> Some Ack
  | _ -> None

let encode f =
  let len = Bytes.length f.payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.set_uint8 b 0 magic;
  Bytes.set_uint8 b 1 (kind_byte f.kind);
  Bytes.set_int32_le b 6 (Int32.of_int f.rank);
  Bytes.set_int64_le b 10 (Int64.of_int f.pid);
  Bytes.set_int64_le b 18 (Int64.of_int f.tid);
  Bytes.set_int64_le b 26 (Int64.of_int f.seq);
  Bytes.set_int32_le b 34 (Int32.of_int len);
  Bytes.set_int64_le b 38 (Int64.of_int f.ctx);
  Bytes.blit f.payload 0 b header_bytes len;
  (* checksum the whole frame with the crc field zeroed (Bytes.create
     gives uninitialized memory — zeroing is not optional) *)
  Bytes.set_int32_le b 2 0l;
  let crc = Bg_engine.Crc32.compute b ~pos:0 ~len:(Bytes.length b) in
  Bytes.set_int32_le b 2 (Int32.of_int crc);
  b

let zero_crc = Bytes.make 4 '\000'

(* The CRC of [data] as encoded: the crc field counts as four zero
   bytes, so the check reads the frame in place instead of a zeroed copy. *)
let frame_crc data =
  let module C = Bg_engine.Crc32 in
  let c = C.compute data ~pos:0 ~len:2 in
  let c = C.update c zero_crc ~pos:0 ~len:4 in
  C.update c data ~pos:6 ~len:(Bytes.length data - 6)

let int_at data off = Int64.to_int (Bytes.get_int64_le data off)
let int32_at data off = Int32.to_int (Bytes.get_int32_le data off)

let decode data =
  let n = Bytes.length data in
  if n < header_bytes then Error (Malformed (Printf.sprintf "short frame: %d bytes" n))
  else begin
    let stored = Int32.to_int (Bytes.get_int32_le data 2) land 0xffffffff in
    if stored <> frame_crc data then Error Corrupt
    else if Bytes.get_uint8 data 0 <> magic then Error (Malformed "bad magic")
    else
      match byte_kind (Bytes.get_uint8 data 1) with
      | None -> Error (Malformed "bad kind")
      | Some kind -> begin
        let len = int32_at data 34 in
        if len < 0 || header_bytes + len <> n then
          Error (Malformed (Printf.sprintf "bad payload length %d in %d-byte frame" len n))
        else
          Ok
            {
              kind;
              rank = int32_at data 6;
              pid = int_at data 10;
              tid = int_at data 18;
              seq = int_at data 26;
              ctx = int_at data 38;
              payload = Bytes.sub data header_bytes len;
            }
      end
  end
