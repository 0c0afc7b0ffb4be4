(* The Buffer-based Proto encoders as they stood before the exact-size
   codec, kept as the reference the codec tests compare against byte
   for byte. Not used by the simulator. *)

module Sysreq = Bg_kabi.Sysreq
module Errno = Bg_kabi.Errno

let put_u8 b v = Buffer.add_uint8 b (v land 0xff)

let put_int b v =
  let x = Bytes.create 8 in
  Bytes.set_int64_le x 0 (Int64.of_int v);
  Buffer.add_bytes b x

let put_str b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_bytes b d =
  put_int b (Bytes.length d);
  Buffer.add_bytes b d

let put_header b { Bg_cio.Proto.rank; pid; tid } =
  put_int b rank;
  put_int b pid;
  put_int b tid

let flags_byte (f : Sysreq.open_flags) =
  (if f.Sysreq.rd then 1 else 0)
  lor (if f.Sysreq.wr then 2 else 0)
  lor (if f.Sysreq.creat then 4 else 0)
  lor (if f.Sysreq.trunc then 8 else 0)
  lor (if f.Sysreq.append then 16 else 0)
  lor if f.Sysreq.excl then 32 else 0

let whence_byte = function Sysreq.Seek_set -> 0 | Sysreq.Seek_cur -> 1 | Sysreq.Seek_end -> 2

let encode_request hdr req =
  if not (Sysreq.is_file_io req) then
    invalid_arg
      (Printf.sprintf "Proto.encode_request: %s is not function-shipped"
         (Sysreq.request_name req));
  let b = Buffer.create 64 in
  put_header b hdr;
  (match req with
  | Sysreq.Open { path; flags; mode } ->
    put_u8 b 1;
    put_str b path;
    put_u8 b (flags_byte flags);
    put_int b mode
  | Sysreq.Close fd ->
    put_u8 b 2;
    put_int b fd
  | Sysreq.Read { fd; len } ->
    put_u8 b 3;
    put_int b fd;
    put_int b len
  | Sysreq.Write { fd; data } ->
    put_u8 b 4;
    put_int b fd;
    put_bytes b data
  | Sysreq.Pread { fd; len; offset } ->
    put_u8 b 5;
    put_int b fd;
    put_int b len;
    put_int b offset
  | Sysreq.Pwrite { fd; data; offset } ->
    put_u8 b 6;
    put_int b fd;
    put_bytes b data;
    put_int b offset
  | Sysreq.Lseek { fd; offset; whence } ->
    put_u8 b 7;
    put_int b fd;
    put_int b offset;
    put_u8 b (whence_byte whence)
  | Sysreq.Fstat fd ->
    put_u8 b 8;
    put_int b fd
  | Sysreq.Stat path ->
    put_u8 b 9;
    put_str b path
  | Sysreq.Ftruncate { fd; length } ->
    put_u8 b 10;
    put_int b fd;
    put_int b length
  | Sysreq.Unlink path ->
    put_u8 b 11;
    put_str b path
  | Sysreq.Mkdir { path; mode } ->
    put_u8 b 12;
    put_str b path;
    put_int b mode
  | Sysreq.Rmdir path ->
    put_u8 b 13;
    put_str b path
  | Sysreq.Readdir path ->
    put_u8 b 14;
    put_str b path
  | Sysreq.Chdir path ->
    put_u8 b 15;
    put_str b path
  | Sysreq.Getcwd -> put_u8 b 16
  | Sysreq.Rename { src; dst } ->
    put_u8 b 17;
    put_str b src;
    put_str b dst
  | Sysreq.Dup fd ->
    put_u8 b 18;
    put_int b fd
  | Sysreq.Fsync fd ->
    put_u8 b 19;
    put_int b fd
  | _ -> assert false);
  Buffer.to_bytes b

let kind_byte = function Sysreq.Regular -> 0 | Sysreq.Directory -> 1

let encode_reply hdr reply =
  let b = Buffer.create 64 in
  put_header b hdr;
  (match reply with
  | Sysreq.R_unit -> put_u8 b 1
  | Sysreq.R_int i ->
    put_u8 b 2;
    put_int b i
  | Sysreq.R_bytes d ->
    put_u8 b 3;
    put_bytes b d
  | Sysreq.R_stat s ->
    put_u8 b 4;
    put_int b s.Sysreq.st_size;
    put_u8 b (kind_byte s.Sysreq.st_kind);
    put_int b s.Sysreq.st_perm
  | Sysreq.R_names names ->
    put_u8 b 5;
    put_int b (List.length names);
    List.iter (put_str b) names
  | Sysreq.R_string s ->
    put_u8 b 6;
    put_str b s
  | Sysreq.R_err e ->
    put_u8 b 7;
    put_int b (Errno.code e)
  | Sysreq.R_map _ | Sysreq.R_uname _ | Sysreq.R_personality _ | Sysreq.R_ranges _
  | Sysreq.R_perf _ | Sysreq.R_dma_packets _ ->
    invalid_arg "Proto.encode_reply: reply kind never crosses the wire");
  Buffer.to_bytes b

