type 'a entry = { time : Cycles.t; seq : int; payload : 'a; mutable live : bool }

type handle = H : 'a entry -> handle [@@unboxed]

(* Binary min-heap on (time, seq). Cancelling clears the entry's [live]
   flag; the dead entry stays in the heap until it reaches the top, where
   [next_time] drops it. [live_count] counts the entries whose flag is set.
   Firing an event allocates nothing here: the handle is the entry itself,
   the sifts move a hole and write the moving entry once, and the head read
   returns a bare cycle with [no_event] for "empty". *)
type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  mutable live_count : int;
}

let no_event = max_int

let create () = { heap = [||]; size = 0; next_seq = 0; live_count = 0 }

let[@inline] before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow q filler =
  let heap = Array.make (max 16 (2 * Array.length q.heap)) filler in
  Array.blit q.heap 0 heap 0 q.size;
  q.heap <- heap

(* Move the hole at [i] towards the root until [e] fits there. *)
let rec sift_up heap i e =
  if i = 0 then heap.(0) <- e
  else begin
    let parent = (i - 1) / 2 in
    let p = heap.(parent) in
    if before e p then begin
      heap.(i) <- p;
      sift_up heap parent e
    end
    else heap.(i) <- e
  end

(* Move the hole at [i] towards the leaves of a [size]-entry heap until [e]
   fits there. *)
let rec sift_down heap size i e =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- e
  else begin
    let c = if l + 1 < size && before heap.(l + 1) heap.(l) then l + 1 else l in
    let child = heap.(c) in
    if before child e then begin
      heap.(i) <- child;
      sift_down heap size c e
    end
    else heap.(i) <- e
  end

let add q ~time payload =
  if time = no_event then
    invalid_arg
      (Printf.sprintf "Event_queue.add: cycle %d is reserved for the empty head" time);
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let e = { time; seq; payload; live = true } in
  if q.size = Array.length q.heap then grow q e;
  q.size <- q.size + 1;
  sift_up q.heap (q.size - 1) e;
  q.live_count <- q.live_count + 1;
  H e

let cancel q (H e) =
  if e.live then begin
    e.live <- false;
    q.live_count <- q.live_count - 1
  end

let remove_head q =
  let last = q.size - 1 in
  q.size <- last;
  if last > 0 then sift_down q.heap last 0 q.heap.(last)

let rec next_time q =
  if q.size = 0 then no_event
  else begin
    let e = q.heap.(0) in
    if e.live then e.time
    else begin
      remove_head q;
      next_time q
    end
  end

let take q =
  if next_time q = no_event then invalid_arg "Event_queue.take: no live event";
  let e = q.heap.(0) in
  remove_head q;
  e.live <- false;
  q.live_count <- q.live_count - 1;
  e.payload

let is_empty q = q.live_count = 0
let length q = q.live_count

let next_seq q = q.next_seq

let live q =
  let out = ref [] in
  for i = 0 to q.size - 1 do
    let e = q.heap.(i) in
    if e.live then out := (e.time, e.seq) :: !out
  done;
  List.sort compare !out
