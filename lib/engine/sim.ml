type outcome = Completed | Reached_limit | Halted of string

type t = {
  mutable clock : Cycles.t;
  queue : (unit -> unit) Event_queue.t;
  trace : Trace.t;
  root_rng : Rng.t;
  streams : (string, Rng.t) Hashtbl.t;
  seed : int64;
  mutable halt_reason : string option;
  mutable fired : int;
}

let create ?(seed = 1L) ?(keep_trace_records = false) () =
  {
    clock = 0;
    queue = Event_queue.create ();
    trace = Trace.create ~keep_records:keep_trace_records ();
    root_rng = Rng.create seed;
    streams = Hashtbl.create 16;
    seed;
    halt_reason = None;
    fired = 0;
  }

let now t = t.clock
let seed t = t.seed

let schedule_at t time thunk =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule_at: cycle %d is before the current cycle %d" time
         t.clock);
  Event_queue.add t.queue ~time thunk

let schedule_in t delta thunk =
  if delta < 0 then
    invalid_arg
      (Printf.sprintf "Sim.schedule_in: negative delay %d asks for cycle %d at cycle %d"
         delta (t.clock + delta) t.clock);
  schedule_at t (t.clock + delta) thunk

let cancel t h = Event_queue.cancel t.queue h
let pending t = Event_queue.length t.queue

(* The one path by which events fire: [Event_queue.next_time] gives the
   head's cycle (or [no_event]) and [fire] takes it, so a fired event
   allocates nothing in the engine. *)
let fire t time =
  let thunk = Event_queue.take t.queue in
  t.clock <- time;
  t.fired <- t.fired + 1;
  thunk ()

let step t =
  let time = Event_queue.next_time t.queue in
  if time = Event_queue.no_event then false
  else begin
    fire t time;
    true
  end

let halt t reason = t.halt_reason <- Some reason

let run ?until ?max_events t =
  (* No event can be scheduled at [no_event] = [max_int], so with no
     [until] the limit below is never passed. *)
  let until = Option.value until ~default:max_int in
  let budget = Option.value max_events ~default:max_int in
  let rec loop fired =
    match t.halt_reason with
    | Some reason ->
      t.halt_reason <- None;
      Halted reason
    | None ->
      if fired >= budget then Reached_limit
      else begin
        let time = Event_queue.next_time t.queue in
        if time = Event_queue.no_event then Completed
        else if time > until then begin
          t.clock <- max t.clock until;
          Reached_limit
        end
        else begin
          fire t time;
          loop (fired + 1)
        end
      end
  in
  loop 0

let trace t = t.trace
let emit t ~label ~value = Trace.emit t.trace ~cycle:t.clock ~label ~value

let rng t name =
  match Hashtbl.find_opt t.streams name with
  | Some stream -> stream
  | None ->
    let stream = Rng.split t.root_rng name in
    Hashtbl.add t.streams name stream;
    stream

let events_fired t = t.fired

(* --- snapshot capture -------------------------------------------------- *)

let w_i64 = Buffer.add_int64_le
let w_i b v = w_i64 b (Int64.of_int v)

let w_s b s =
  w_i b (String.length s);
  Buffer.add_string b s

let capture t b =
  w_i b t.clock;
  w_i64 b t.seed;
  w_i b t.fired;
  w_i64 b (Trace.digest t.trace);
  w_i b (Trace.count t.trace);
  w_i b (Trace.last_cycle t.trace);
  w_i64 b (Rng.state t.root_rng);
  let streams =
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.streams []
    |> List.sort compare
  in
  w_i b (List.length streams);
  List.iter
    (fun (name, s) ->
      w_s b name;
      w_i64 b (Rng.state s);
      w_i64 b (Rng.seed s))
    streams;
  (* queue shape: payload thunks are closures, so only (time, seq) pairs
     and the allocation cursor are captured — replay rebuilds the thunks *)
  w_i b (Event_queue.next_seq t.queue);
  let live = Event_queue.live t.queue in
  w_i b (List.length live);
  List.iter
    (fun (time, seq) ->
      w_i b time;
      w_i b seq)
    live
