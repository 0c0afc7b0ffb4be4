type header = { rank : int; pid : int; tid : int }

(* --- primitive encoders --------------------------------------------

   A message is encoded into bytes of exactly its size: the encoder
   first sums the field sizes, then each [put_*] writes at an offset
   and returns the offset after it. *)

let put_u8 b at v =
  Bytes.set_uint8 b at (v land 0xff);
  at + 1

let put_int b at v =
  Bytes.set_int64_le b at (Int64.of_int v);
  at + 8

let put_str b at s =
  let n = String.length s in
  let at = put_int b at n in
  Bytes.blit_string s 0 b at n;
  at + n

let put_bytes b at d =
  let n = Bytes.length d in
  let at = put_int b at n in
  Bytes.blit d 0 b at n;
  at + n

let str_size s = 8 + String.length s
let bytes_size d = 8 + Bytes.length d
let header_size = 24

type error = Malformed of string

let error_message (Malformed m) = m

type cursor = { data : bytes; mutable pos : int }

(* Internal decode failure; [decode_request]/[decode_reply] catch it and
   return a typed [Malformed] — a hostile message must never raise out of
   the decoder, and no cursor read may touch bytes past the buffer. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let need c n =
  if n < 0 || c.pos + n > Bytes.length c.data then
    bad "truncated: need %d byte(s) at offset %d of %d" n c.pos (Bytes.length c.data)

let get_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.data c.pos in
  c.pos <- c.pos + 1;
  v

let get_int c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_len c =
  let n = get_int c in
  need c n;
  n

let get_str c =
  let n = get_len c in
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_bytes c =
  let n = get_len c in
  let s = Bytes.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let finished c =
  if c.pos <> Bytes.length c.data then
    bad "trailing garbage: %d byte(s) past the message" (Bytes.length c.data - c.pos)

let put_header b { rank; pid; tid } =
  let at = put_int b 0 rank in
  let at = put_int b at pid in
  put_int b at tid

let get_header c =
  let rank = get_int c in
  let pid = get_int c in
  let tid = get_int c in
  { rank; pid; tid }

(* --- request encoding ----------------------------------------------- *)

let flags_byte (f : Sysreq.open_flags) =
  (if f.Sysreq.rd then 1 else 0)
  lor (if f.Sysreq.wr then 2 else 0)
  lor (if f.Sysreq.creat then 4 else 0)
  lor (if f.Sysreq.trunc then 8 else 0)
  lor (if f.Sysreq.append then 16 else 0)
  lor if f.Sysreq.excl then 32 else 0

let byte_flags v =
  {
    Sysreq.rd = v land 1 <> 0;
    wr = v land 2 <> 0;
    creat = v land 4 <> 0;
    trunc = v land 8 <> 0;
    append = v land 16 <> 0;
    excl = v land 32 <> 0;
  }

let whence_byte = function Sysreq.Seek_set -> 0 | Sysreq.Seek_cur -> 1 | Sysreq.Seek_end -> 2

let byte_whence = function
  | 0 -> Sysreq.Seek_set
  | 1 -> Sysreq.Seek_cur
  | 2 -> Sysreq.Seek_end
  | n -> bad "bad whence %d" n

(* Body size after the header and the one-byte tag. *)
let request_size = function
  | Sysreq.Open { path; _ } -> str_size path + 1 + 8
  | Sysreq.Close _ | Sysreq.Fstat _ | Sysreq.Dup _ | Sysreq.Fsync _ -> 8
  | Sysreq.Read _ | Sysreq.Ftruncate _ -> 16
  | Sysreq.Write { data; _ } -> 8 + bytes_size data
  | Sysreq.Pread _ -> 24
  | Sysreq.Pwrite { data; _ } -> 8 + bytes_size data + 8
  | Sysreq.Lseek _ -> 17
  | Sysreq.Stat p | Sysreq.Unlink p | Sysreq.Rmdir p | Sysreq.Readdir p | Sysreq.Chdir p ->
    str_size p
  | Sysreq.Mkdir { path; _ } -> str_size path + 8
  | Sysreq.Getcwd -> 0
  | Sysreq.Rename { src; dst } -> str_size src + str_size dst
  | _ -> assert false

let encode_request hdr req =
  if not (Sysreq.is_file_io req) then
    invalid_arg
      (Printf.sprintf "Proto.encode_request: %s is not function-shipped"
         (Sysreq.request_name req));
  let size = header_size + 1 + request_size req in
  let b = Bytes.create size in
  let at = put_header b hdr in
  let at =
    match req with
    | Sysreq.Open { path; flags; mode } ->
      let at = put_str b (put_u8 b at 1) path in
      put_int b (put_u8 b at (flags_byte flags)) mode
    | Sysreq.Close fd -> put_int b (put_u8 b at 2) fd
    | Sysreq.Read { fd; len } -> put_int b (put_int b (put_u8 b at 3) fd) len
    | Sysreq.Write { fd; data } -> put_bytes b (put_int b (put_u8 b at 4) fd) data
    | Sysreq.Pread { fd; len; offset } ->
      put_int b (put_int b (put_int b (put_u8 b at 5) fd) len) offset
    | Sysreq.Pwrite { fd; data; offset } ->
      put_int b (put_bytes b (put_int b (put_u8 b at 6) fd) data) offset
    | Sysreq.Lseek { fd; offset; whence } ->
      put_u8 b (put_int b (put_int b (put_u8 b at 7) fd) offset) (whence_byte whence)
    | Sysreq.Fstat fd -> put_int b (put_u8 b at 8) fd
    | Sysreq.Stat path -> put_str b (put_u8 b at 9) path
    | Sysreq.Ftruncate { fd; length } -> put_int b (put_int b (put_u8 b at 10) fd) length
    | Sysreq.Unlink path -> put_str b (put_u8 b at 11) path
    | Sysreq.Mkdir { path; mode } -> put_int b (put_str b (put_u8 b at 12) path) mode
    | Sysreq.Rmdir path -> put_str b (put_u8 b at 13) path
    | Sysreq.Readdir path -> put_str b (put_u8 b at 14) path
    | Sysreq.Chdir path -> put_str b (put_u8 b at 15) path
    | Sysreq.Getcwd -> put_u8 b at 16
    | Sysreq.Rename { src; dst } -> put_str b (put_str b (put_u8 b at 17) src) dst
    | Sysreq.Dup fd -> put_int b (put_u8 b at 18) fd
    | Sysreq.Fsync fd -> put_int b (put_u8 b at 19) fd
    | _ -> assert false
  in
  assert (at = size);
  b

let decode_request data =
  try
    let c = { data; pos = 0 } in
    let hdr = get_header c in
    let req =
      match get_u8 c with
    | 1 ->
      let path = get_str c in
      let flags = byte_flags (get_u8 c) in
      let mode = get_int c in
      Sysreq.Open { path; flags; mode }
    | 2 -> Sysreq.Close (get_int c)
    | 3 ->
      let fd = get_int c in
      let len = get_int c in
      Sysreq.Read { fd; len }
    | 4 ->
      let fd = get_int c in
      let data = get_bytes c in
      Sysreq.Write { fd; data }
    | 5 ->
      let fd = get_int c in
      let len = get_int c in
      let offset = get_int c in
      Sysreq.Pread { fd; len; offset }
    | 6 ->
      let fd = get_int c in
      let data = get_bytes c in
      let offset = get_int c in
      Sysreq.Pwrite { fd; data; offset }
    | 7 ->
      let fd = get_int c in
      let offset = get_int c in
      let whence = byte_whence (get_u8 c) in
      Sysreq.Lseek { fd; offset; whence }
    | 8 -> Sysreq.Fstat (get_int c)
    | 9 -> Sysreq.Stat (get_str c)
    | 10 ->
      let fd = get_int c in
      let length = get_int c in
      Sysreq.Ftruncate { fd; length }
    | 11 -> Sysreq.Unlink (get_str c)
    | 12 ->
      let path = get_str c in
      let mode = get_int c in
      Sysreq.Mkdir { path; mode }
    | 13 -> Sysreq.Rmdir (get_str c)
    | 14 -> Sysreq.Readdir (get_str c)
    | 15 -> Sysreq.Chdir (get_str c)
    | 16 -> Sysreq.Getcwd
    | 17 ->
      let src = get_str c in
      let dst = get_str c in
      Sysreq.Rename { src; dst }
    | 18 -> Sysreq.Dup (get_int c)
    | 19 -> Sysreq.Fsync (get_int c)
      | n -> bad "bad request tag %d" n
    in
    finished c;
    Ok (hdr, req)
  with Bad m -> Error (Malformed m)

(* --- reply encoding -------------------------------------------------- *)

let kind_byte = function Sysreq.Regular -> 0 | Sysreq.Directory -> 1

let byte_kind = function
  | 0 -> Sysreq.Regular
  | 1 -> Sysreq.Directory
  | n -> bad "bad kind %d" n

let reply_size = function
  | Sysreq.R_unit -> 0
  | Sysreq.R_int _ | Sysreq.R_err _ -> 8
  | Sysreq.R_bytes d -> bytes_size d
  | Sysreq.R_stat _ -> 17
  | Sysreq.R_names names -> List.fold_left (fun n s -> n + str_size s) 8 names
  | Sysreq.R_string s -> str_size s
  | Sysreq.R_map _ | Sysreq.R_uname _ | Sysreq.R_personality _ | Sysreq.R_ranges _
  | Sysreq.R_perf _ | Sysreq.R_dma_packets _ ->
    invalid_arg "Proto.encode_reply: reply kind never crosses the wire"

let encode_reply hdr reply =
  let size = header_size + 1 + reply_size reply in
  let b = Bytes.create size in
  let at = put_header b hdr in
  let at =
    match reply with
    | Sysreq.R_unit -> put_u8 b at 1
    | Sysreq.R_int i -> put_int b (put_u8 b at 2) i
    | Sysreq.R_bytes d -> put_bytes b (put_u8 b at 3) d
    | Sysreq.R_stat s ->
      let at = put_int b (put_u8 b at 4) s.Sysreq.st_size in
      put_int b (put_u8 b at (kind_byte s.Sysreq.st_kind)) s.Sysreq.st_perm
    | Sysreq.R_names names ->
      List.fold_left (put_str b) (put_int b (put_u8 b at 5) (List.length names)) names
    | Sysreq.R_string s -> put_str b (put_u8 b at 6) s
    | Sysreq.R_err e -> put_int b (put_u8 b at 7) (Errno.code e)
    | _ -> assert false
  in
  assert (at = size);
  b

let errnos =
  [
    Errno.EPERM; Errno.ENOENT; Errno.ESRCH; Errno.EINTR; Errno.EIO; Errno.EBADF;
    Errno.EAGAIN; Errno.ENOMEM; Errno.EACCES; Errno.EFAULT; Errno.EEXIST;
    Errno.ENOTDIR; Errno.EISDIR; Errno.EINVAL; Errno.EMFILE; Errno.ENOSPC;
    Errno.ESPIPE; Errno.EROFS; Errno.ENOSYS; Errno.ENOTEMPTY; Errno.ENAMETOOLONG;
  ]

let errno_of_code code =
  match List.find_opt (fun e -> Errno.code e = code) errnos with
  | Some e -> e
  | None -> bad "unknown errno %d" code

let decode_reply data =
  try
    let c = { data; pos = 0 } in
    let hdr = get_header c in
    let reply =
      match get_u8 c with
      | 1 -> Sysreq.R_unit
      | 2 -> Sysreq.R_int (get_int c)
      | 3 -> Sysreq.R_bytes (get_bytes c)
      | 4 ->
        let st_size = get_int c in
        let st_kind = byte_kind (get_u8 c) in
        let st_perm = get_int c in
        Sysreq.R_stat { Sysreq.st_size; st_kind; st_perm }
      | 5 ->
        let n = get_int c in
        (* each name needs at least its 8-byte length prefix *)
        if n < 0 || n * 8 > Bytes.length c.data - c.pos then bad "bad name count %d" n;
        Sysreq.R_names (List.init n (fun _ -> get_str c))
      | 6 -> Sysreq.R_string (get_str c)
      | 7 -> Sysreq.R_err (errno_of_code (get_int c))
      | n -> bad "bad reply tag %d" n
    in
    finished c;
    Ok (hdr, reply)
  with Bad m -> Error (Malformed m)
