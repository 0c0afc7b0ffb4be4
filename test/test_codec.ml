(* The CIO wire codec against references: slicing-by-8 CRC-32 against a
   byte-at-a-time CRC, the exact-size Proto encoders against the Buffer
   encoders they replaced (test/ref_proto.ml), and Frame round trips,
   plus the allocation guards of the hot path. *)

open Bg_engine
open Bg_kabi
open Bg_cio

let check_int = Alcotest.(check int)
let native = Sys.backend_type = Sys.Native

(* Words allocated by [f], less the boxed float the measurement itself
   costs. *)
let words f =
  let empty =
    let w0 = Gc.minor_words () in
    Gc.minor_words () -. w0
  in
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0 -. empty

(* ------------------------------------------------------------------ *)
(* CRC-32 *)

let ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ref_crc b ~pos ~len =
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := ref_table.((!c lxor Bytes.get_uint8 b i) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Rng.int rng 256))

(* Every length 0..300 at every offset 0..15 of a random buffer: all
   eight alignments of the 8-byte steps and every tail length. *)
let test_crc_every_length_and_offset () =
  let b = random_bytes (Rng.create 5L) 316 in
  for pos = 0 to 15 do
    for len = 0 to 300 do
      let want = ref_crc b ~pos ~len in
      if Crc32.compute b ~pos ~len <> want then Alcotest.failf "compute pos %d len %d" pos len;
      let cut = pos + (len / 3) in
      let c = Crc32.update (Crc32.compute b ~pos ~len:(cut - pos)) b ~pos:cut ~len:(pos + len - cut) in
      if c <> want then Alcotest.failf "update pos %d len %d split at %d" pos len cut
    done
  done

(* Bit 7 of the top byte of each 8-byte block is bit 63 of the word a
   64-bit load would read; a 63-bit int drops it. *)
let test_crc_top_bit_of_each_block () =
  let b = random_bytes (Rng.create 6L) 203 in
  let n = Bytes.length b in
  let base = Crc32.compute b ~pos:0 ~len:n in
  for pos = 0 to 7 do
    let blk = ref (pos + 7) in
    while !blk < n do
      let c = Bytes.copy b in
      Bytes.set_uint8 c !blk (Bytes.get_uint8 c !blk lxor 0x80);
      let len = n - pos in
      check_int (Printf.sprintf "flip byte %d from %d" !blk pos) (ref_crc c ~pos ~len)
        (Crc32.compute c ~pos ~len);
      if Crc32.compute c ~pos:0 ~len:n = base then Alcotest.failf "flip of byte %d undetected" !blk;
      blk := !blk + 8
    done
  done

let test_crc_every_bit_flip () =
  let b = random_bytes (Rng.create 7L) 40 in
  let n = Bytes.length b in
  for bit = 0 to (8 * n) - 1 do
    let c = Bytes.copy b in
    Bytes.set_uint8 c (bit / 8) (Bytes.get_uint8 c (bit / 8) lxor (1 lsl (bit mod 8)));
    check_int (Printf.sprintf "bit %d" bit) (ref_crc c ~pos:0 ~len:n) (Crc32.compute c ~pos:0 ~len:n)
  done

let prop_crc_pieces =
  QCheck.Test.make ~name:"crc32: update over random pieces equals one compute" ~count:2000
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (small_list small_nat))
    (fun (s, cuts) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cuts = List.sort_uniq compare (List.map (fun c -> if n = 0 then 0 else c mod (n + 1)) cuts) in
      let c, last =
        List.fold_left (fun (c, at) cut -> (Crc32.update c b ~pos:at ~len:(cut - at), cut)) (0, 0) cuts
      in
      let c = Crc32.update c b ~pos:last ~len:(n - last) in
      c = ref_crc b ~pos:0 ~len:n && c = Crc32.compute b ~pos:0 ~len:n)

let test_crc_rejects_bad_ranges () =
  let b = Bytes.create 10 in
  List.iter
    (fun (pos, len) ->
      let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
      if not (raises (fun () -> Crc32.compute b ~pos ~len)) then
        Alcotest.failf "compute pos %d len %d" pos len;
      if not (raises (fun () -> Crc32.update 0 b ~pos ~len)) then
        Alcotest.failf "update pos %d len %d" pos len)
    [ (0, -1); (-1, 1); (-1, 0); (0, 11); (5, 6); (10, 1); (11, 0); (max_int, 1); (1, max_int) ];
  check_int "empty tail" 0 (Crc32.compute b ~pos:10 ~len:0)

let test_crc_allocates_nothing () =
  if native then begin
    let b = random_bytes (Rng.create 8L) 1000 in
    let w =
      words (fun () ->
          for len = 0 to 999 do
            ignore (Sys.opaque_identity (Crc32.compute b ~pos:0 ~len))
          done)
    in
    Alcotest.(check (float 0.0)) "words over 1,000 Crc32.compute" 0.0 w
  end

(* ------------------------------------------------------------------ *)
(* Proto against the Buffer encoders *)

let gen_str = QCheck.Gen.(string_size ~gen:printable (0 -- 40))
let gen_bytes = QCheck.Gen.(map Bytes.of_string (string_size (0 -- 300)))
let gen_int = QCheck.Gen.(oneof [ int; small_signed_int; return min_int; return max_int ])

let gen_flags =
  QCheck.Gen.(
    map
      (fun (rd, wr, creat, (trunc, append, excl)) ->
        { Sysreq.rd; wr; creat; trunc; append; excl })
      (quad bool bool bool (triple bool bool bool)))

(* Every function-shipped request kind. *)
let gen_request =
  let open QCheck.Gen in
  oneof
    [
      map3 (fun path flags mode -> Sysreq.Open { path; flags; mode }) gen_str gen_flags gen_int;
      map (fun fd -> Sysreq.Close fd) gen_int;
      map2 (fun fd len -> Sysreq.Read { fd; len }) gen_int gen_int;
      map2 (fun fd data -> Sysreq.Write { fd; data }) gen_int gen_bytes;
      map3 (fun fd len offset -> Sysreq.Pread { fd; len; offset }) gen_int gen_int gen_int;
      map3 (fun fd data offset -> Sysreq.Pwrite { fd; data; offset }) gen_int gen_bytes gen_int;
      map3
        (fun fd offset whence -> Sysreq.Lseek { fd; offset; whence })
        gen_int gen_int
        (oneofl [ Sysreq.Seek_set; Sysreq.Seek_cur; Sysreq.Seek_end ]);
      map (fun fd -> Sysreq.Fstat fd) gen_int;
      map (fun p -> Sysreq.Stat p) gen_str;
      map2 (fun fd length -> Sysreq.Ftruncate { fd; length }) gen_int gen_int;
      map (fun p -> Sysreq.Unlink p) gen_str;
      map2 (fun path mode -> Sysreq.Mkdir { path; mode }) gen_str gen_int;
      map (fun p -> Sysreq.Rmdir p) gen_str;
      map (fun p -> Sysreq.Readdir p) gen_str;
      map (fun p -> Sysreq.Chdir p) gen_str;
      return Sysreq.Getcwd;
      map2 (fun src dst -> Sysreq.Rename { src; dst }) gen_str gen_str;
      map (fun fd -> Sysreq.Dup fd) gen_int;
      map (fun fd -> Sysreq.Fsync fd) gen_int;
    ]

(* Every reply kind that crosses the wire. *)
let gen_reply =
  let open QCheck.Gen in
  oneof
    [
      return Sysreq.R_unit;
      map (fun i -> Sysreq.R_int i) gen_int;
      map (fun d -> Sysreq.R_bytes d) gen_bytes;
      map3
        (fun st_size st_kind st_perm -> Sysreq.R_stat { Sysreq.st_size; st_kind; st_perm })
        gen_int
        (oneofl [ Sysreq.Regular; Sysreq.Directory ])
        gen_int;
      map (fun l -> Sysreq.R_names l) (list_size (0 -- 6) gen_str);
      map (fun s -> Sysreq.R_string s) gen_str;
      map (fun e -> Sysreq.R_err e)
        (oneofl
           [ Errno.EPERM; Errno.ENOENT; Errno.EIO; Errno.EBADF; Errno.EEXIST; Errno.EINVAL;
             Errno.ENOSPC; Errno.ENOTEMPTY; Errno.ENAMETOOLONG ]);
    ]

let gen_header =
  QCheck.Gen.(map3 (fun rank pid tid -> { Proto.rank; pid; tid }) gen_int gen_int gen_int)

let prop_request_bytes =
  QCheck.Test.make ~name:"proto: every request encodes as the Buffer encoder did" ~count:5000
    (QCheck.make (QCheck.Gen.pair gen_header gen_request))
    (fun (hdr, req) ->
      Bytes.equal (Proto.encode_request hdr req) (Ref_proto.encode_request hdr req)
      && Proto.decode_request (Proto.encode_request hdr req) = Ok (hdr, req))

let prop_reply_bytes =
  QCheck.Test.make ~name:"proto: every reply encodes as the Buffer encoder did" ~count:5000
    (QCheck.make (QCheck.Gen.pair gen_header gen_reply))
    (fun (hdr, reply) ->
      Bytes.equal (Proto.encode_reply hdr reply) (Ref_proto.encode_reply hdr reply)
      && Proto.decode_reply (Proto.encode_reply hdr reply) = Ok (hdr, reply))

let test_proto_rejects_as_before () =
  let hdr = { Proto.rank = 1; pid = 2; tid = 3 } in
  let msg f = match f () with _ -> "none" | exception Invalid_argument m -> m in
  List.iter
    (fun req ->
      Alcotest.(check string) "request" (msg (fun () -> Ref_proto.encode_request hdr req))
        (msg (fun () -> Proto.encode_request hdr req)))
    [ Sysreq.Getpid; Sysreq.Sched_yield; Sysreq.Brk None ];
  List.iter
    (fun reply ->
      Alcotest.(check string) "reply" (msg (fun () -> Ref_proto.encode_reply hdr reply))
        (msg (fun () -> Proto.encode_reply hdr reply)))
    [ Sysreq.R_map []; Sysreq.R_ranges [] ]

(* ------------------------------------------------------------------ *)
(* Frame *)

let gen_frame =
  let open QCheck.Gen in
  map
    (fun ((kind, rank, pid), (tid, seq, ctx), payload) ->
      { Frame.kind; rank; pid; tid; seq; ctx; payload })
    (triple
       (triple (oneofl [ Frame.Request; Frame.Reply; Frame.Ack ]) (0 -- 0x7fffffff) gen_int)
       (triple gen_int gen_int gen_int)
       gen_bytes)

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame: decode (encode f) = f" ~count:5000 (QCheck.make gen_frame)
    (fun f -> Frame.decode (Frame.encode f) = Ok f)

(* Decode of a mangled frame: never raises, never writes its input. *)
let prop_frame_decode_total =
  QCheck.Test.make ~name:"frame: decode never raises nor mutates its input" ~count:5000
    (QCheck.make
       QCheck.Gen.(triple gen_frame (list_size (0 -- 4) (pair nat (0 -- 255))) (opt nat)))
    (fun (f, flips, cut) ->
      let b = Frame.encode f in
      List.iter
        (fun (i, x) ->
          if Bytes.length b > 0 then
            let i = i mod Bytes.length b in
            Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor x))
        flips;
      let b = match cut with Some n -> Bytes.sub b 0 (n mod (Bytes.length b + 1)) | None -> b in
      let before = Bytes.copy b in
      match Frame.decode b with
      | Ok _ | Error _ -> Bytes.equal b before
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* The decoded record, its [Ok] and the payload copy, and nothing else:
   no scratch copy of the frame for the CRC check. *)
let test_frame_decode_word_bound () =
  if native then begin
    let payload = Bytes.make 160 'p' in
    let wire =
      Frame.encode { Frame.kind = Frame.Reply; rank = 1; pid = 2; tid = 3; seq = 4; ctx = 5; payload }
    in
    let payload_words = 1 + ((Bytes.length payload + 8) / 8) in
    let bound = 8 + 2 + payload_words in
    let w = words (fun () -> ignore (Sys.opaque_identity (Frame.decode wire))) in
    if w > float_of_int bound then Alcotest.failf "Frame.decode: %.0f words, bound %d" w bound
  end

let qcheck =
  List.map QCheck_alcotest.to_alcotest
    [ prop_crc_pieces; prop_request_bytes; prop_reply_bytes; prop_frame_roundtrip; prop_frame_decode_total ]

let suite =
  [
    Alcotest.test_case "crc32: every length at every offset" `Quick test_crc_every_length_and_offset;
    Alcotest.test_case "crc32: top bit of each 8-byte block" `Quick test_crc_top_bit_of_each_block;
    Alcotest.test_case "crc32: every bit flip matches the reference" `Quick test_crc_every_bit_flip;
    Alcotest.test_case "crc32: bad pos or len is rejected" `Quick test_crc_rejects_bad_ranges;
    Alcotest.test_case "crc32: compute allocates nothing" `Quick test_crc_allocates_nothing;
    Alcotest.test_case "proto: rejects what the Buffer encoder rejected" `Quick
      test_proto_rejects_as_before;
    Alcotest.test_case "frame: decode stays under its word bound" `Quick test_frame_decode_word_bound;
  ]
  @ qcheck
