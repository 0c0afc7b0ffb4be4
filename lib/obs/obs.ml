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

(* Open spans live in parallel columns indexed by slot; a slot freed by
   an ended span is reused by the next begun one, so beginning and
   ending a span allocates nothing once the columns have grown. *)
type opens = {
  handles : int Key_tbl.t;  (* handle -> slot *)
  mutable o_cats : string array;
  mutable o_names : string array;
  mutable o_ranks : int array;
  mutable o_cores : int array;
  mutable o_starts : int array;
  mutable o_depths : int array;
  mutable free : int array;  (* stack of free slots below [used] *)
  mutable n_free : int;
  mutable used : int;
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
  mutable dropped : int;  (* this scope's dropped_spans counter entry, or -1 *)
}

type timer = { online : Stats.Online.t; hist : Stats.Histogram.t }

type t = {
  mutable enabled : bool;
  ring_capacity : int;
  scopes : scope Key_tbl.t;  (* (rank, core, 0) *)
  opens : opens;
  mutable next_handle : int;
  digest : Fnv.Acc.t;
  mutable completed : int;
  counters : int Metric_tbl.t;
  gauges : int Metric_tbl.t;
  timers : timer Metric_tbl.t;
}

let create_opens () =
  {
    handles = Key_tbl.create ();
    o_cats = [||];
    o_names = [||];
    o_ranks = [||];
    o_cores = [||];
    o_starts = [||];
    o_depths = [||];
    free = [||];
    n_free = 0;
    used = 0;
  }

let create ?(ring_capacity = 1024) ?(enabled = false) () =
  if ring_capacity <= 0 then invalid_arg "Obs.create: ring_capacity";
  {
    enabled;
    ring_capacity;
    scopes = Key_tbl.create ();
    opens = create_opens ();
    next_handle = 0;
    digest = Fnv.Acc.create ();
    completed = 0;
    counters = Metric_tbl.create ();
    gauges = Metric_tbl.create ();
    timers = Metric_tbl.create ();
  }

let enabled t = t.enabled
let set_enabled t v = t.enabled <- v

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
    dropped = -1;
  }

let scope_for t ~rank ~core =
  let i = Key_tbl.find t.scopes rank core 0 in
  if i >= 0 then Key_tbl.get t.scopes i
  else begin
    let sc = new_scope t.ring_capacity in
    ignore (Key_tbl.add t.scopes rank core 0 sc);
    sc
  end

(* [by] more on the counter at entry [e] of [t.counters], or on a new
   entry for the key when [e] is -1; returns the entry. *)
let bump_counter t e ~subsystem ~name ~rank ~core by =
  if e >= 0 then begin
    Metric_tbl.set t.counters e (Metric_tbl.get t.counters e + by);
    e
  end
  else Metric_tbl.add t.counters ~subsystem ~name ~rank ~core by

(* Ring wraparound overwrites the oldest span; count each loss as a
   first-class per-scope metric so exports and tools can warn. The
   counter entry is looked up once per scope, on its first drop. *)
let count_drop t sc ~rank ~core =
  let subsystem = "obs" and name = "dropped_spans" in
  let e =
    if sc.dropped >= 0 then sc.dropped
    else Metric_tbl.find t.counters ~subsystem ~name ~rank ~core
  in
  sc.dropped <- bump_counter t e ~subsystem ~name ~rank ~core 1

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
  let d = t.digest in
  Fnv.Acc.add_string d cat;
  Fnv.Acc.add_string d name;
  Fnv.Acc.add_int d rank;
  Fnv.Acc.add_int d core;
  Fnv.Acc.add_int d start;
  Fnv.Acc.add_int d finish

(* A free open-span slot, growing the columns when none is left. *)
let take_slot o =
  if o.n_free > 0 then begin
    o.n_free <- o.n_free - 1;
    o.free.(o.n_free)
  end
  else begin
    let i = o.used in
    if i = Array.length o.o_starts then begin
      let cap = max 16 (2 * i) in
      let extend a pad = Array.init cap (fun j -> if j < i then a.(j) else pad) in
      o.o_cats <- extend o.o_cats "";
      o.o_names <- extend o.o_names "";
      o.o_ranks <- extend o.o_ranks 0;
      o.o_cores <- extend o.o_cores 0;
      o.o_starts <- extend o.o_starts 0;
      o.o_depths <- extend o.o_depths 0;
      o.free <- extend o.free 0
    end;
    o.used <- i + 1;
    i
  end

let span_begin t ~cat ~name ~rank ~core ~now =
  if not t.enabled then null_handle
  else begin
    let sc = scope_for t ~rank ~core in
    let h = t.next_handle in
    t.next_handle <- h + 1;
    let o = t.opens in
    let i = take_slot o in
    o.o_cats.(i) <- cat;
    o.o_names.(i) <- name;
    o.o_ranks.(i) <- rank;
    o.o_cores.(i) <- core;
    o.o_starts.(i) <- now;
    o.o_depths.(i) <- sc.depth;
    ignore (Key_tbl.add o.handles h 0 0 i);
    sc.depth <- sc.depth + 1;
    h
  end

(* Forget open span [h], in slot [i], and pop its scope's depth. *)
let close_open t h i =
  let o = t.opens in
  Key_tbl.remove o.handles h 0 0;
  o.free.(o.n_free) <- i;
  o.n_free <- o.n_free + 1;
  let sc = scope_for t ~rank:o.o_ranks.(i) ~core:o.o_cores.(i) in
  if sc.depth > 0 then sc.depth <- sc.depth - 1;
  sc

let open_slot t h =
  let e = Key_tbl.find t.opens.handles h 0 0 in
  if e < 0 then -1 else Key_tbl.get t.opens.handles e

let span_end t h ~now =
  if t.enabled && h <> null_handle then begin
    let i = open_slot t h in
    if i >= 0 then begin
      let sc = close_open t h i in
      let o = t.opens in
      push_span t sc ~cat:o.o_cats.(i) ~name:o.o_names.(i) ~rank:o.o_ranks.(i)
        ~core:o.o_cores.(i) ~start:o.o_starts.(i) ~finish:now ~depth:o.o_depths.(i)
    end
  end

let span_record t ~cat ~name ~rank ~core ~start ~finish =
  if t.enabled then begin
    let sc = scope_for t ~rank ~core in
    push_span t sc ~cat ~name ~rank ~core ~start ~finish ~depth:sc.depth
  end

let open_count t = Key_tbl.length t.opens.handles

let abandon_open t h =
  if h <> null_handle then begin
    let i = open_slot t h in
    if i >= 0 then ignore (close_open t h i)
  end

let span_count t = t.completed

let dropped_spans t =
  Key_tbl.fold (fun _ _ _ r acc -> acc + max 0 (r.written - r.cap)) t.scopes 0

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
    Key_tbl.fold (fun rank core _ r acc -> ((rank, core), r) :: acc) t.scopes []
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

let digest t = Fnv.Acc.get t.digest

(* --- metrics ----------------------------------------------------------- *)

let incr t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name ?(by = 1) () =
  if t.enabled then
    ignore
      (bump_counter t (Metric_tbl.find t.counters ~subsystem ~name ~rank ~core) ~subsystem ~name
         ~rank ~core by)

let set_gauge t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name v =
  if t.enabled then begin
    let e = Metric_tbl.find t.gauges ~subsystem ~name ~rank ~core in
    if e >= 0 then Metric_tbl.set t.gauges e v
    else ignore (Metric_tbl.add t.gauges ~subsystem ~name ~rank ~core v)
  end

let default_hist_hi = 1_048_576.0
let default_hist_bins = 64

let observe_cycles t ?(rank = node_scope) ?(core = node_scope) ?(hi = default_hist_hi)
    ?(bins = default_hist_bins) ~subsystem ~name cycles =
  if t.enabled then begin
    let e = Metric_tbl.find t.timers ~subsystem ~name ~rank ~core in
    let timer =
      if e >= 0 then Metric_tbl.get t.timers e
      else begin
        let tm =
          { online = Stats.Online.create (); hist = Stats.Histogram.create ~lo:0.0 ~hi ~bins }
        in
        ignore (Metric_tbl.add t.timers ~subsystem ~name ~rank ~core tm);
        tm
      end
    in
    let x = float_of_int cycles in
    Stats.Online.add timer.online x;
    Stats.Histogram.add timer.hist x
  end

let lookup tbl ~subsystem ~name ~rank ~core =
  let e = Metric_tbl.find tbl ~subsystem ~name ~rank ~core in
  if e < 0 then None else Some (Metric_tbl.get tbl e)

let counter_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.value (lookup t.counters ~subsystem ~name ~rank ~core) ~default:0

let counter_total t ~subsystem ~name =
  Metric_tbl.fold
    (fun ~subsystem:s ~name:n ~rank:_ ~core:_ v acc ->
      if s = subsystem && n = name then acc + v else acc)
    t.counters 0

let gauge_value t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  lookup t.gauges ~subsystem ~name ~rank ~core

let timer_stats t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.map (fun tm -> tm.online) (lookup t.timers ~subsystem ~name ~rank ~core)

let timer_histogram t ?(rank = node_scope) ?(core = node_scope) ~subsystem ~name () =
  Option.map (fun tm -> tm.hist) (lookup t.timers ~subsystem ~name ~rank ~core)

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
  let each tbl f =
    Metric_tbl.fold
      (fun ~subsystem ~name ~rank ~core v () ->
        out := { key = { subsystem; name; rank; core }; value = f v } :: !out)
      tbl ()
  in
  each t.counters (fun v -> Counter v);
  each t.gauges (fun v -> Gauge v);
  each t.timers (fun tm ->
      let o = tm.online in
      let h = tm.hist in
      (* bin interpolation can land outside the observed extremes when a
         distribution is much tighter than the bin width; clamp so the
         reported quantiles always lie within the data *)
      let pct p =
        Float.max (Stats.Online.min o)
          (Float.min (Stats.Online.max o) (Stats.Histogram.percentile h p))
      in
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
        });
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
  w_i64 (digest t);
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
  let o = t.opens in
  let opens = Key_tbl.fold (fun h _ _ i acc -> (h, i) :: acc) o.handles [] |> List.sort compare in
  w_i (List.length opens);
  List.iter
    (fun (h, i) ->
      w_i h;
      w_s o.o_cats.(i);
      w_s o.o_names.(i);
      w_i o.o_ranks.(i);
      w_i o.o_cores.(i);
      w_i o.o_starts.(i);
      w_i o.o_depths.(i))
    opens;
  let depths =
    Key_tbl.fold (fun rank core _ sc acc -> ((rank, core), sc.depth) :: acc) t.scopes []
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
  Key_tbl.reset t.scopes;
  Key_tbl.reset t.opens.handles;
  t.opens.n_free <- 0;
  t.opens.used <- 0;
  Metric_tbl.reset t.counters;
  Metric_tbl.reset t.gauges;
  Metric_tbl.reset t.timers;
  t.next_handle <- 0;
  Fnv.Acc.set t.digest Fnv.empty;
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
