open Bg_engine

(* Every table is keyed by (rank, pid, tid) ints, with tid 0 where the
   key is a process, so no lookup builds a key. *)

(* [acked] marks an entry whose reply bytes are reclaimed: [seq] stays
   behind as a watermark, so a request copy the network reordered behind
   its own Ack is still recognised as a duplicate. *)
type cached_reply = { mutable seq : int; mutable frame : bytes; mutable acked : bool }

type t = {
  procs : unit Key_tbl.t;
  proxies : Ioproxy.t Key_tbl.t;
  replies : cached_reply Key_tbl.t;
}

let create () = { procs = Key_tbl.create (); proxies = Key_tbl.create (); replies = Key_tbl.create () }
let add_proc t ~rank ~pid = Key_tbl.replace t.procs rank pid 0 ()

let procs t =
  Key_tbl.fold (fun rank pid _ () acc -> (rank, pid) :: acc) t.procs [] |> List.sort compare

let record_proxy t ~rank ~pid p = Key_tbl.replace t.proxies rank pid 0 p

let proxy_snapshot t ~rank ~pid =
  let e = Key_tbl.find t.proxies rank pid 0 in
  if e < 0 then None else Some (Ioproxy.snapshot (Key_tbl.get t.proxies e))

let record_reply t ~rank ~pid ~tid ~seq ~frame =
  let e = Key_tbl.find t.replies rank pid tid in
  if e < 0 then ignore (Key_tbl.add t.replies rank pid tid { seq; frame; acked = false })
  else begin
    let c = Key_tbl.get t.replies e in
    c.seq <- seq;
    c.frame <- frame;
    c.acked <- false
  end

type request = Fresh | Replay of bytes | Acked | Stale

let classify t ~rank ~pid ~tid ~seq =
  let e = Key_tbl.find t.replies rank pid tid in
  if e < 0 then Fresh
  else
    let c = Key_tbl.get t.replies e in
    if c.seq = seq then if c.acked then Acked else Replay c.frame
    else if seq < c.seq then Stale
    else Fresh

let retire_reply t ~rank ~pid ~tid ~seq =
  let e = Key_tbl.find t.replies rank pid tid in
  if e >= 0 then begin
    let c = Key_tbl.get t.replies e in
    if c.seq = seq then begin
      c.acked <- true;
      c.frame <- Bytes.empty
    end
  end

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let procs = procs t in
  w_i (List.length procs);
  List.iter
    (fun (rank, pid) ->
      w_i rank;
      w_i pid)
    procs;
  let proxies =
    Key_tbl.fold (fun rank pid _ p acc -> ((rank, pid), p) :: acc) t.proxies []
    |> List.sort (fun (k, _) (k', _) -> compare k k')
  in
  w_i (List.length proxies);
  List.iter
    (fun ((rank, pid), p) ->
      w_i rank;
      w_i pid;
      Ioproxy.capture_snapshot (Ioproxy.snapshot p) b)
    proxies;
  let replies =
    Key_tbl.fold (fun rank pid tid c acc -> ((rank, pid, tid), c) :: acc) t.replies []
    |> List.sort (fun (k, _) (k', _) -> compare k k')
  in
  w_i (List.length replies);
  List.iter
    (fun ((rank, pid, tid), c) ->
      w_i rank;
      w_i pid;
      w_i tid;
      w_i c.seq;
      if c.acked then Buffer.add_uint8 b 0
      else begin
        Buffer.add_uint8 b 1;
        w_i (Bytes.length c.frame);
        Buffer.add_int64_le b (Fnv.add_bytes Fnv.empty c.frame)
      end)
    replies

let remove_rank t ~rank =
  let drop tbl =
    Key_tbl.fold (fun r pid tid _ acc -> if r = rank then (pid, tid) :: acc else acc) tbl []
    |> List.iter (fun (pid, tid) -> Key_tbl.remove tbl rank pid tid)
  in
  drop t.procs;
  drop t.proxies;
  drop t.replies
