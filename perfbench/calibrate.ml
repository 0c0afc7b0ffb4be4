(* calibrate — the host-speed probe behind perfbench's time metrics.

   A fixed discrete-event kernel (a binary heap of timed closures, a
   table of live events, a little allocation per event) written against
   the standard library alone, so nothing in the simulator's libraries,
   their initialisation or their GC settings can change how fast it
   runs. perfbench runs it just before every iteration and scales that
   iteration's host times by [reference / this kernel's time]. On a
   shared host whose speed shifts by half from one minute to the next,
   the scaled times hold still while the raw ones do not.

   Prints the fastest of five runs of the kernel, in seconds: a slow
   phase of the host slows all five, while a one-off stall (a page
   fault, a neighbour's burst) is dropped. *)

type ev = { time : int; seq : int; fire : unit -> unit }

let events = 70_000
let depth = 1_024

let kernel () =
  let heap = Array.make (2 * depth) { time = 0; seq = 0; fire = ignore } in
  let size = ref 0 in
  let alive = Hashtbl.create (2 * depth) in
  let seq = ref 0 and now = ref 0 and log = ref [] in
  let x = ref 12345 in
  let rand () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq) in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && less e heap.((!i - 1) / 2) do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && less heap.(l + 1) heap.(l) then l + 1 else l in
        if less heap.(c) last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let rec schedule delay =
    incr seq;
    let s = !seq in
    Hashtbl.replace alive s ();
    push
      {
        time = !now + delay;
        seq = s;
        fire =
          (fun () ->
            Hashtbl.remove alive s;
            log := (s, !now) :: (if s land 255 = 0 then [] else !log);
            schedule (1 + (rand () land 1023)));
      }
  in
  for _ = 1 to depth do
    schedule (rand () land 1023)
  done;
  for _ = 1 to events do
    let e = pop () in
    now := e.time;
    e.fire ()
  done;
  Hashtbl.length alive + List.length !log

let () =
  let runs =
    List.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (kernel ()));
        Unix.gettimeofday () -. t0)
  in
  Printf.printf "%.9f\n" (List.fold_left Float.min infinity runs)
