(* Isolation cells: one layer's host cost per unit of work, measured on its
   own so the traced run can turn a layer's work count into a share of
   the end-to-end run time. *)

open Bg_engine

let median_of reps f = Summary.median (List.init reps (fun _ -> f ()))

(* No-op thunks through [Sim.schedule_in] + [Sim.step] with the queue
   held at [depth] pending events: each fired thunk schedules its
   successor, so the depth never changes. *)
let engine_ns_per_event ~depth ~events =
  let depth = max 1 depth in
  let deltas = Array.init 4096 (fun i -> 1 + (i * 7919 mod 2000)) in
  median_of 3 (fun () ->
      let sim = Sim.create () in
      let k = ref 0 in
      let rec thunk () =
        incr k;
        ignore (Sim.schedule_in sim deltas.(!k land 4095) thunk)
      in
      for i = 0 to depth - 1 do
        ignore (Sim.schedule_in sim deltas.(i land 4095) thunk)
      done;
      for _ = 1 to min events depth do
        ignore (Sim.step sim)
      done;
      let t0 = Phase.now () in
      for _ = 1 to events do
        ignore (Sim.step sim)
      done;
      (Phase.now () -. t0) *. 1e9 /. float_of_int events)

(* Proto request/reply encode + decode inside a CRC [Frame], over a
   workload's function-shipped request mix: host ns per request. *)
let codec_ns_per_request mix ~requests =
  let mix = Array.of_list mix in
  let n = Array.length mix in
  if n = 0 then 0.0
  else begin
    let hdr = { Bg_cio.Proto.rank = 0; pid = 1; tid = 1 } in
    let frame kind seq payload =
      Bg_cio.Frame.encode { Bg_cio.Frame.kind; rank = 0; pid = 1; tid = 1; seq; ctx = 0; payload }
    in
    let unframe wire =
      match Bg_cio.Frame.decode wire with
      | Ok f -> f.Bg_cio.Frame.payload
      | Error e -> failwith ("codec cell: " ^ Bg_cio.Frame.error_message e)
    in
    let one seq (req, rep) =
      let wire = frame Bg_cio.Frame.Request seq (Bg_cio.Proto.encode_request hdr req) in
      (match Bg_cio.Proto.decode_request (unframe wire) with
      | Ok _ -> ()
      | Error e -> failwith ("codec cell: " ^ Bg_cio.Proto.error_message e));
      let wire = frame Bg_cio.Frame.Reply seq (Bg_cio.Proto.encode_reply hdr rep) in
      match Bg_cio.Proto.decode_reply (unframe wire) with
      | Ok _ -> ()
      | Error e -> failwith ("codec cell: " ^ Bg_cio.Proto.error_message e)
    in
    median_of 3 (fun () ->
        let t0 = Phase.now () in
        for i = 0 to requests - 1 do
          one i mix.(i mod n)
        done;
        (Phase.now () -. t0) *. 1e9 /. float_of_int requests)
  end
