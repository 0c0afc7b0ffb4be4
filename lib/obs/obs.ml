open Bg_engine

(* The whole collector is passive: it never schedules events, never draws
   from an RNG stream, and never writes to the architectural trace, so a
   run's Sim digest is bit-identical whether collection is on or off. Its
   own stream of completed spans carries a parallel FNV digest, so the
   observability layer itself is determinism-checkable. *)

(* --- scopes and keys ------------------------------------------------- *)

let node_scope = -1

type key = { subsystem : string; name : string; rank : int; core : int }

let compare_key a b =
  let c = compare a.subsystem b.subsystem in
  if c <> 0 then c
  else
    let c = compare a.name b.name in
    if c <> 0 then c
    else
      let c = compare a.rank b.rank in
      if c <> 0 then c else compare a.core b.core

(* --- spans ------------------------------------------------------------ *)

type span = {
  cat : string;
  name : string;
  rank : int;
  core : int;
  start : Cycles.t;
  finish : Cycles.t;
  depth : int;
  seq : int;  (* global completion order *)
}

type handle = int

let null_handle = -1

type open_span = {
  o_cat : string;
  o_name : string;
  o_rank : int;
  o_core : int;
  o_start : Cycles.t;
  o_depth : int;
}

(* CNK-style fixed-memory record store: one record per (rank, core)
   scope, holding that scope's span ring (parallel arrays sized once, then
   overwritten in place when full), its open-span depth and its cached
   [obs.dropped_spans] counter cell. A span touches exactly one scope,
   found by one allocation-free lookup; nothing grows during steady
   state, and the scope table itself is populated once per scope seen. *)
type scope = {
  cap : int;
  cats : string array;
  names : string array;
  starts : int array;
  finishes : int array;
  depths : int array;
  seqs : int array;  (* global completion sequence number per slot *)
  mutable written : int;  (* total spans ever pushed through this ring *)
  mutable depth : int;  (* spans currently open in this scope *)
  mutable dropped : int ref option;  (* this scope's dropped_spans cell *)
}

type timer = { online : Stats.Online.t; hist : Stats.Histogram.t }

type t = {
  mutable enabled : bool;
  ring_capacity : int;
  scopes : scope Scope_tbl.t;
  opens : (handle, open_span) Hashtbl.t;
  mutable next_handle : int;
  mutable digest : Fnv.t;
  mutable completed : int;
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, int ref) Hashtbl.t;
  timers : (key, timer) Hashtbl.t;
}

let create ?(ring_capacity = 1024) ?(enabled = false) () =
  if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity";
  {
    enabled;
    ring_capacity;
    scopes = Scope_tbl.create ();
    opens = Hashtbl.create 32;
    next_handle = 0;
    digest = Fnv.empty;
    completed = 0;
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    timers = Hashtbl.create 32;
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v
let ring_capacity t = t.ring_capacity

let new_scope cap =
  {
    cap;
    cats = Array.make cap "";
    names = Array.make cap "";
    starts = Array.make cap 0;
    finishes = Array.make cap 0;
    depths = Array.make cap 0;
    seqs = Array.make cap 0;
    written = 0;
    depth = 0;
    dropped = None;
  }

let scope_for t ~rank ~core =
  let i = Scope_tbl.find t.scopes ~rank ~core in
  if i >= 0 then Scope_tbl.get t.scopes i
  else begin
    let sc = new_scope t.ring_capacity in
    Scope_tbl.add t.scopes ~rank ~core sc;
    sc
  end

(* Ring wraparound overwrites the oldest span; count each loss as a
   first-class per-scope metric so exports and tools can warn. The
   counter cell is looked up once per scope, on its first drop. *)
let count_drop t sc ~rank ~core =
  match sc.dropped with
  | Some r -> Stdlib.incr r
  | None ->
    let key = { subsystem = "obs"; name = "dropped_spans"; rank; core } in
    let r =
      match Hashtbl.find_opt t.counters key with
      | Some r ->
        Stdlib.incr r;
        r
      | None ->
        let r = ref 1 in
        Hashtbl.add t.counters key r;
        r
    in
    sc.dropped <- Some r

let push_span t sc ~cat ~name ~rank ~core ~start ~finish ~depth =
  let i = sc.written mod sc.cap in
  if sc.written >= sc.cap then count_drop t sc ~rank ~core;
  sc.cats.(i) <- cat;
  sc.names.(i) <- name;
  sc.starts.(i) <- start;
  sc.finishes.(i) <- finish;
  sc.depths.(i) <- depth;
  sc.seqs.(i) <- t.completed;
  sc.written <- sc.written + 1;
  t.completed <- t.completed + 1;
  let d = Fnv.add_string t.digest cat in
  let d = Fnv.add_string d name in
  let d = Fnv.add_int d rank in
  let d = Fnv.add_int d core in
  let d = Fnv.add_int d start in
  t.digest <- Fnv.add_int d finish

let span_begin t ~cat ~name ~rank ~core ~now =
  if not t.enabled then null_handle
  else begin
    let sc = scope_for t ~rank ~core in
    let h = t.next_handle in
    t.next_handle <- h + 1;
    Hashtbl.add t.opens h
      { o_cat = cat; o_name = name; o_rank = rank; o_core = core; o_start = now; o_depth = sc.depth };
    sc.depth <- sc.depth + 1;
    h
  end

(* Forget open span [h], found as [o], and pop its scope's depth. *)
let close_open t h o =
  Hashtbl.remove t.opens h;
  let sc = scope_for t ~rank:o.o_rank ~core:o.o_core in
  if sc.depth > 0 then sc.depth <- sc.depth - 1;
  sc

let span_end t h ~now =
  if t.enabled && h <> null_handle then
    match Hashtbl.find_opt t.opens h with
    | None -> ()
    | Some o ->
      let sc = close_open t h o in
      push_span t sc ~cat:o.o_cat ~name:o.o_name ~rank:o.o_rank ~core:o.o_core
        ~start:o.o_start ~finish:now ~depth:o.o_depth

let span_record t ~cat ~name ~rank ~core ~start ~finish =
  if t.enabled then begin
    let sc = scope_for t ~rank ~core in
    push_span t sc ~cat ~name ~rank ~core ~start ~finish ~depth:sc.depth
  end

let open_count t = Hashtbl.length t.opens

let abandon_open t h =
  if h <> null_handle then
    match Hashtbl.find_opt t.opens h with
    | None -> ()
    | Some o -> ignore (close_open t h o)

let span_count t = t.completed

let dropped_spans t =
  Scope_tbl.fold (fun ~rank:_ ~core:_ r acc -> acc + max 0 (r.written - r.cap)) t.scopes 0

let iter_scope_spans ~rank ~core r f =
  let retained = min r.written r.cap in
  let first = r.written - retained in
  for j = first to r.written - 1 do
    let i = j mod r.cap in
    f
      {
        cat = r.cats.(i);
        name = r.names.(i);
        rank;
        core;
        start = r.starts.(i);
        finish = r.finishes.(i);
        depth = r.depths.(i);
        seq = r.seqs.(i);
      }
  done

let spans t =
  let scopes =
    Scope_tbl.fold (fun ~rank ~core r acc -> ((rank, core), r) :: acc) t.scopes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let out = ref [] in
  List.iter
    (fun ((rank, core), r) ->
      iter_scope_spans ~rank ~core r (fun s -> out := s :: !out))
    scopes;
  (* total order: start cycle, then scope, then global completion
     sequence — equal-start spans sort deterministically no matter what
     order the scope table iterates in *)
  List.sort
    (fun a b ->
      let c = compare a.start b.start in
      if c <> 0 then c
      else
        let c = compare (a.rank, a.core) (b.rank, b.core) in
        if c <> 0 then c else compare a.seq b.seq)
    (List.rev !out)

let digest t = t.digest

(* --- metrics ----------------------------------------------------------- *)

let incr t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name ?(by = 1) () =
  if t.enabled then begin
    let key = { subsystem; name; rank; core } in
    match Hashtbl.find_opt t.counters key with
    | Some r -> r := !r + by
    | None -> Hashtbl.add t.counters key (ref by)
  end

let set_gauge t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name v =
  if t.enabled then begin
    let key = { subsystem; name; rank; core } in
    match Hashtbl.find_opt t.gauges key with
    | Some r -> r := v
    | None -> Hashtbl.add t.gauges key (ref v)
  end

let default_hist_hi = 1_048_576.0
let default_hist_bins = 64

let observe_cycles t ?(rank = node_scope) ?(core = node_scope) ?(hi = default_hist_hi)
    ?(bins = default_hist_bins) ~subsystem ~name cycles =
  if t.enabled then begin
    let key = { subsystem; name; rank; core } in
    let timer =
      match Hashtbl.find_opt t.timers key with
      | Some tm -> tm
      | None ->
        let tm =
          { online = Stats.Online.create (); hist = Stats.Histogram.create ~lo:0.0 ~hi ~bins }
        in
        Hashtbl.add t.timers key tm;
        tm
    in
    let x = float_of_int cycles in
    Stats.Online.add timer.online x;
    Stats.Histogram.add timer.hist x
  end

let counter_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  match Hashtbl.find_opt t.counters { subsystem; name; rank; core } with
  | Some r -> !r
  | None -> 0

let counter_total t ~subsystem ~name =
  Hashtbl.fold
    (fun k r acc -> if k.subsystem = subsystem && k.name = name then acc + !r else acc)
    t.counters 0

let gauge_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  match Hashtbl.find_opt t.gauges { subsystem; name; rank; core } with
  | Some r -> Some !r
  | None -> None

let timer_stats t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.map (fun tm -> tm.online) (Hashtbl.find_opt t.timers { subsystem; name; rank; core })

let timer_histogram t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.map (fun tm -> tm.hist) (Hashtbl.find_opt t.timers { subsystem; name; rank; core })

(* --- snapshot ----------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of int
  | Timer of {
      n : int;
      mean : float;
      min : float;
      max : float;
      sum : float;
      p50 : float;
      p90 : float;
      p99 : float;
      p999 : float;
    }

type metric = { key : key; value : value }

let snapshot t =
  let out = ref [] in
  Hashtbl.iter (fun key r -> out := { key; value = Counter !r } :: !out) t.counters;
  Hashtbl.iter (fun key r -> out := { key; value = Gauge !r } :: !out) t.gauges;
  Hashtbl.iter
    (fun key tm ->
      let o = tm.online in
      let h = tm.hist in
      (* bin interpolation can land outside the observed extremes when a
         distribution is much tighter than the bin width; clamp so the
         reported quantiles always lie within the data *)
      let pct p =
        Float.max (Stats.Online.min o)
          (Float.min (Stats.Online.max o) (Stats.Histogram.percentile h p))
      in
      out :=
        {
          key;
          value =
            Timer
              {
                n = Stats.Online.n o;
                mean = Stats.Online.mean o;
                min = Stats.Online.min o;
                max = Stats.Online.max o;
                sum = Stats.Histogram.sum h;
                p50 = pct 0.50;
                p90 = pct 0.90;
                p99 = pct 0.99;
                p999 = pct 0.999;
              };
        }
        :: !out)
    t.timers;
  List.sort (fun a b -> compare_key a.key b.key) !out

let capture t b =
  let w_i v = Buffer.add_int64_le b (Int64.of_int v) in
  let w_i64 = Buffer.add_int64_le b in
  let w_f v = w_i64 (Int64.bits_of_float v) in
  let w_s s =
    w_i (String.length s);
    Buffer.add_string b s
  in
  Buffer.add_uint8 b (if t.enabled then 1 else 0);
  w_i t.ring_capacity;
  w_i t.next_handle;
  w_i t.completed;
  w_i64 t.digest;
  let sp = spans t in
  w_i (List.length sp);
  List.iter
    (fun s ->
      w_s s.cat;
      w_s s.name;
      w_i s.rank;
      w_i s.core;
      w_i s.start;
      w_i s.finish;
      w_i s.depth;
      w_i s.seq)
    sp;
  let opens =
    Hashtbl.fold (fun h o acc -> (h, o) :: acc) t.opens [] |> List.sort compare
  in
  w_i (List.length opens);
  List.iter
    (fun (h, o) ->
      w_i h;
      w_s o.o_cat;
      w_s o.o_name;
      w_i o.o_rank;
      w_i o.o_core;
      w_i o.o_start;
      w_i o.o_depth)
    opens;
  let depths =
    Scope_tbl.fold (fun ~rank ~core sc acc -> ((rank, core), sc.depth) :: acc) t.scopes []
    |> List.sort compare
  in
  w_i (List.length depths);
  List.iter
    (fun ((rank, core), d) ->
      w_i rank;
      w_i core;
      w_i d)
    depths;
  let ms = snapshot t in
  w_i (List.length ms);
  List.iter
    (fun m ->
      w_s m.key.subsystem;
      w_s m.key.name;
      w_i m.key.rank;
      w_i m.key.core;
      match m.value with
      | Counter v ->
        Buffer.add_uint8 b 0;
        w_i v
      | Gauge v ->
        Buffer.add_uint8 b 1;
        w_i v
      | Timer x ->
        Buffer.add_uint8 b 2;
        w_i x.n;
        w_f x.mean;
        w_f x.min;
        w_f x.max;
        w_f x.sum;
        w_f x.p50;
        w_f x.p90;
        w_f x.p99;
        w_f x.p999)
    ms

let reset t =
  Scope_tbl.reset t.scopes;
  Hashtbl.reset t.opens;
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.timers;
  t.next_handle <- 0;
  t.digest <- Fnv.empty;
  t.completed <- 0

let pp_metric ppf m =
  let scope =
    if m.key.rank = node_scope && m.key.core = node_scope then ""
    else Printf.sprintf " [r%d c%d]" m.key.rank m.key.core
  in
  match m.value with
  | Counter v -> Format.fprintf ppf "%s.%s%s = %d" m.key.subsystem m.key.name scope v
  | Gauge v -> Format.fprintf ppf "%s.%s%s = %d (gauge)" m.key.subsystem m.key.name scope v
  | Timer { n; mean; min; max; sum = _; p50; p90 = _; p99; p999 } ->
    Format.fprintf ppf
      "%s.%s%s: n=%d mean=%.1f min=%.0f max=%.0f p50=%.0f p99=%.0f p999=%.0f"
      m.key.subsystem m.key.name scope n mean min max p50 p99 p999
