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

let overhead = header_bytes

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

let decode data =
  let n = Bytes.length data in
  if n < header_bytes then Error (Malformed (Printf.sprintf "short frame: %d bytes" n))
  else begin
    let stored = Int32.to_int (Bytes.get_int32_le data 2) land 0xffffffff in
    let scratch = Bytes.copy data in
    Bytes.set_int32_le scratch 2 0l;
    let computed = Bg_engine.Crc32.compute scratch ~pos:0 ~len:n in
    if stored <> computed then Error Corrupt
    else if Bytes.get_uint8 data 0 <> magic then Error (Malformed "bad magic")
    else
      match byte_kind (Bytes.get_uint8 data 1) with
      | None -> Error (Malformed "bad kind")
      | Some kind -> begin
        let int_at off = Int64.to_int (Bytes.get_int64_le data off) in
        let int32_at off = Int32.to_int (Bytes.get_int32_le data off) in
        let len = int32_at 34 in
        if len < 0 || header_bytes + len <> n then
          Error (Malformed (Printf.sprintf "bad payload length %d in %d-byte frame" len n))
        else
          Ok
            {
              kind;
              rank = int32_at 6;
              pid = int_at 10;
              tid = int_at 18;
              seq = int_at 26;
              ctx = int_at 38;
              payload = Bytes.sub data header_bytes len;
            }
      end
  end
