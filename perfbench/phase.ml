(* Host-side measurement of one workload iteration, taken entirely from
   outside the simulator: the benchmark times its own calls into the
   public entry points and reads each layer's public counters. Nothing in
   the libraries is instrumented.

   Every iteration times its phases, because [setup_s] and [run_s] are
   built from them, and scales each phase's seconds to the reference host
   speed with the probe taken at the start of its part (Summary.scale).
   Spans (name, start, end, parent, GC deltas) and the pending-depth
   sampling are kept only in the traced run. *)

open Bg_engine

let now = Unix.gettimeofday

type gc = { words : float; minor : int; major : int; promoted : float }

(* Words allocated so far: minor allocations plus direct major ones.
   Only [Gc.minor_words] counts the minor heap exactly at any point; the
   minor field of [Gc.counters] and [Gc.quick_stat] lags by a varying
   amount, which would make a deterministic workload look otherwise. *)
let words_now () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let gc_now () =
  let _, promoted, major = Gc.counters () in
  let s = Gc.quick_stat () in
  {
    words = Gc.minor_words () +. major -. promoted;
    minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    promoted;
  }

(* Host speed: the seconds calibrate.exe's fixed kernel takes right now.
   The probe is its own process, built without the simulator, so nothing
   the simulator does to its own process changes the reading. *)
let probe () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "calibrate.exe" in
  flush_all ();
  let ic = Unix.open_process_args_in exe [| exe |] in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some s when s > 0.0 -> s
  | _ -> failwith ("the host-speed probe " ^ exe ^ " failed")

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  start : float;
  mutable stop : float;
  g0 : gc;
  mutable g1 : gc;
  factor : float;  (** host-speed scale in force while the span ran *)
}

type tracer = {
  on : bool;
  mutable spans : span list;  (** newest first *)
  mutable stack : span list;
  mutable next_id : int;
}

let tracer on = { on; spans = []; stack = []; next_id = 0 }

let open_span tr ~factor name =
  let g = gc_now () in
  let sp =
    {
      id = tr.next_id;
      name;
      parent = (match tr.stack with p :: _ -> p.id | [] -> -1);
      start = now ();
      stop = nan;
      g0 = g;
      g1 = g;
      factor;
    }
  in
  tr.next_id <- tr.next_id + 1;
  tr.spans <- sp :: tr.spans;
  tr.stack <- sp :: tr.stack;
  sp

let close_span tr sp =
  sp.stop <- now ();
  sp.g1 <- gc_now ();
  tr.stack <- (match tr.stack with _ :: rest -> rest | [] -> [])

let with_span tr ~factor name f =
  if not tr.on then f ()
  else begin
    let sp = open_span tr ~factor name in
    match f () with
    | r -> close_span tr sp; r
    | exception e -> close_span tr sp; raise e
  end

let spans tr = List.rev tr.spans
let duration sp = sp.stop -. sp.start

(* A span's self time: its duration minus what its children cover.
   Children of one parent never overlap (one domain, nested calls).
   Unscaled host seconds. *)
let self_time tr sp =
  List.fold_left
    (fun acc c -> if c.parent = sp.id then acc -. duration c else acc)
    (duration sp) tr.spans

(* Share of [sp]'s wall time covered by the leaves beneath it. *)
let leaf_coverage tr sp =
  let all = spans tr in
  let has_child s = List.exists (fun c -> c.parent = s.id) all in
  let rec under s =
    s.parent = sp.id || (s.parent >= 0 && under (List.find (fun p -> p.id = s.parent) all))
  in
  let covered =
    List.fold_left
      (fun acc s -> if (not (has_child s)) && under s then acc +. duration s else acc)
      0.0 all
  in
  if duration sp > 0.0 then covered /. duration sp else 0.0

(* ------------------------------------------------------------------ *)
(* One iteration of a workload. *)

type t = {
  tracer : tracer;
  mutable setup_s : float;  (** scaled to the reference host speed *)
  mutable run_s : float;  (** scaled to the reference host speed *)
  mutable setup_raw_s : float;
  mutable run_raw_s : float;
  mutable factor : float;  (** scale for the part running now *)
  mutable probes : float list;  (** probe seconds, newest first *)
  mutable tally : Summary.tally;
  (* deterministic counters, compared across every timed iteration *)
  mutable events : int;  (** events fired inside drive phases *)
  mutable sim_cycles : int;
  mutable trace_digest : Fnv.t;
  mutable result_digest : Fnv.t;
  (* per-layer values, summed over the iteration's machines *)
  values : (string, float) Hashtbl.t;
  (* pending-depth samples, traced run only *)
  mutable pending_n : int;
  mutable pending_sum : float;
  mutable pending_peak : int;
  words0 : float;
  mutable words : float;  (** words allocated over the whole iteration *)
  mutable top_heap_words : int;  (** the process's peak major heap at the end *)
}

let create ~traced =
  {
    tracer = tracer traced;
    setup_s = 0.0;
    run_s = 0.0;
    setup_raw_s = 0.0;
    run_raw_s = 0.0;
    factor = 1.0;
    probes = [];
    tally = Summary.no_ops;
    events = 0;
    sim_cycles = 0;
    trace_digest = Fnv.empty;
    result_digest = Fnv.empty;
    values = Hashtbl.create 64;
    pending_n = 0;
    pending_sum = 0.0;
    pending_peak = 0;
    words0 = words_now ();
    words = 0.0;
    top_heap_words = 0;
  }

let traced it = it.tracer.on
let get it k = Option.value ~default:0.0 (Hashtbl.find_opt it.values k)
let add it k v = Hashtbl.replace it.values k (get it k +. v)
let set_max it k v = Hashtbl.replace it.values k (Float.max (get it k) v)
let addi it k v = add it k (float_of_int v)
let check it ok = it.tally <- Summary.check it.tally ok
let count it ~attempted ~failed =
  it.tally <- Summary.add_ops it.tally { Summary.attempted; failed }
let digest_int it v = it.result_digest <- Fnv.add_int it.result_digest v
let digest_int64 it v = it.result_digest <- Fnv.add_int64 it.result_digest v
let digest_string it s = it.result_digest <- Fnv.add_string it.result_digest s

type kind = Setup | Run | Post

(* Time one call into the simulator. [keys] receive its scaled seconds
   and [alloc_keys] its allocated words (in millions). *)
let phase it kind name ?(keys = []) ?(alloc_keys = []) f =
  let w0 = if alloc_keys = [] then 0.0 else words_now () in
  let t0 = now () in
  let r = with_span it.tracer ~factor:it.factor name f in
  let raw = now () -. t0 in
  let dt = raw *. it.factor in
  (match kind with
  | Setup ->
    it.setup_s <- it.setup_s +. dt;
    it.setup_raw_s <- it.setup_raw_s +. raw
  | Run ->
    it.run_s <- it.run_s +. dt;
    it.run_raw_s <- it.run_raw_s +. raw
  | Post -> ());
  List.iter (fun k -> add it k dt) keys;
  if alloc_keys <> [] then begin
    let dw = (words_now () -. w0) /. 1e6 in
    List.iter (fun k -> add it k dw) alloc_keys
  end;
  r

let group it name f = with_span it.tracer ~factor:it.factor name f

(* Measure the host speed now; the phases that follow are scaled by it. *)
let reprobe it =
  let p = probe () in
  it.probes <- p :: it.probes;
  it.factor <- Summary.scale ~probe_s:p 1.0

(* One part of an iteration (a kernel's machine, a policy's run): the host
   speed is probed afresh at its start, so a part of a few seconds is
   never scaled by a reading taken long before it. The probe gets a span
   of its own. *)
let part it name f =
  group it "probe" (fun () -> reprobe it);
  group it name f

let sample it sim extra =
  let p = Sim.pending sim in
  it.pending_n <- it.pending_n + 1;
  it.pending_sum <- it.pending_sum +. float_of_int p;
  if p > it.pending_peak then it.pending_peak <- p;
  extra ()

(* Sampling for a drive loop the benchmark does not own: a passive event
   every [sampler_period] cycles that reads the queue depth and re-arms
   while other work is pending. It changes no simulated state, so it is used
   only in the traced run. *)
let sampler_period = 10_000

let arm_sampler it sim extra =
  let rec tick () =
    sample it sim extra;
    if Sim.pending sim > 0 then ignore (Sim.schedule_in sim sampler_period tick)
  in
  ignore (Sim.schedule_in sim sampler_period tick)

(* The simulation loop of one machine. Timed runs call the same entry the
   tools use ([Sim.run], or [run] when the workload owns one, such as
   [Service.run]); only the traced run steps the queue itself to sample
   its depth. *)
let drive it ~layer ?(keys = []) ?(alloc_keys = []) ?(extra_sample = ignore) ?run sim =
  let e0 = Sim.events_fired sim in
  phase it Run "drive" ~keys:((layer ^ ".run_s") :: keys) ~alloc_keys:("drive_mwords" :: alloc_keys)
    (fun () ->
      match run with
      | Some f ->
        if traced it then arm_sampler it sim extra_sample;
        f ()
      | None ->
        if traced it then
          while Sim.step sim do
            sample it sim extra_sample
          done
        else begin
          match Sim.run sim with
          | Sim.Completed -> ()
          | Sim.Reached_limit -> failwith "drive: event budget reached"
          | Sim.Halted why -> failwith ("drive: halted: " ^ why)
        end);
  let fired = Sim.events_fired sim - e0 in
  it.events <- it.events + fired;
  it.sim_cycles <- it.sim_cycles + Sim.now sim;
  it.trace_digest <- Fnv.add_int64 it.trace_digest (Trace.digest (Sim.trace sim));
  addi it (layer ^ ".events") fired

let finish it =
  it.words <- words_now () -. it.words0;
  it.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words

(* The counters every timed iteration must repeat exactly. *)
let probe_median it = Summary.median it.probes

type det = { d_events : int; d_cycles : int; d_words : float; d_trace : Fnv.t; d_result : Fnv.t }

let det it =
  {
    d_events = it.events;
    d_cycles = it.sim_cycles;
    d_words = it.words;
    d_trace = it.trace_digest;
    d_result = it.result_digest;
  }

let det_equal a b =
  a.d_events = b.d_events && a.d_cycles = b.d_cycles && a.d_words = b.d_words
  && Fnv.equal a.d_trace b.d_trace && Fnv.equal a.d_result b.d_result

let det_to_string d =
  Printf.sprintf "events=%d cycles=%d words=%.0f trace=%s result=%s" d.d_events d.d_cycles
    d.d_words (Fnv.to_hex d.d_trace) (Fnv.to_hex d.d_result)
