open Effect
open Effect.Deep

type 'c ops = {
  clock : 'c -> Bg_engine.Cycles.t;
  load : 'c -> int -> int -> bytes;
  store : 'c -> int -> bytes -> unit;
  cas : 'c -> int -> int -> int -> bool;
  fetch_add : 'c -> int -> int -> int;
}

type services = Services : 'c ops * 'c -> services
type _ trap = Fault : string * 'a -> 'a trap | Guard_hit : int -> unit trap

type step =
  | Finished
  | Crashed of exn
  | Consume of int * (unit, step) continuation
  | Syscall of Sysreq.request * (Sysreq.reply, step) continuation
  | Yield of (unit, step) continuation
  | Trap : 'a trap * ('a, step) continuation -> step

type _ Effect.t +=
  | E_consume : int -> unit Effect.t
  | E_syscall : Sysreq.request -> Sysreq.reply Effect.t
  | E_yield : unit Effect.t
  | E_trap : 'a trap -> 'a Effect.t

let unbound op = invalid_arg (op ^ ": no running thread")

let idle =
  let clock () = unbound "Coro.rdtsc" and load () _ _ = unbound "Coro.load" in
  let store () _ _ = unbound "Coro.store" and cas () _ _ _ = unbound "Coro.cas" in
  Services ({ clock; load; store; cas; fetch_add = (fun () _ _ -> unbound "Coro.fetch_add") }, ())

(* The running thread's services; [idle] whenever no fiber runs on this
   domain, so nothing here keeps a finished machine reachable. One cell per
   domain: publishing is then a field write, not a [Domain.DLS.set]. *)
type cell = { mutable running : services }

let slot = Domain.DLS.new_key (fun () -> { running = idle })
let current () = (Domain.DLS.get slot).running

let consume n =
  if n < 0 then invalid_arg "Coro.consume: negative cycles";
  if n > 0 then perform (E_consume n)

let syscall r = perform (E_syscall r)
let yield () = perform E_yield
let trap tr = perform (E_trap tr)
let rdtsc () = match current () with Services (o, c) -> o.clock c
let load ~addr ~len = match current () with Services (o, c) -> o.load c addr len
let store ~addr data = match current () with Services (o, c) -> o.store c addr data
let cas ~addr ~expected ~desired =
  match current () with Services (o, c) -> o.cas c addr expected desired
let fetch_add ~addr delta = match current () with Services (o, c) -> o.fetch_add c addr delta

(* One handler per fiber, built when the fiber starts. A suspension
   parks its payload in the fiber's [parked] record and returns a [Some]
   built once here, so a [consume] or [syscall] allocates only its step.
   The runtime calls the returned function at once, before the fiber can
   perform again, so [parked] still holds this suspension's payload. *)
type parked = { mutable cycles : int; mutable request : Sysreq.request }

let on_yield = Some (fun k -> Yield k)

let fiber_handler () =
  let p = { cycles = 0; request = Sysreq.Getpid } in
  let on_consume = Some (fun k -> Consume (p.cycles, k)) in
  let on_syscall = Some (fun k -> Syscall (p.request, k)) in
  {
    retc = (fun () -> Finished);
    exnc = (fun e -> Crashed e);
    effc =
      (fun (type a) (eff : a Effect.t) : ((a, step) continuation -> step) option ->
        match eff with
        | E_consume n ->
          p.cycles <- n;
          on_consume
        | E_syscall r ->
          p.request <- r;
          on_syscall
        | E_yield -> on_yield
        | E_trap tr -> Some (fun k -> Trap (tr, k))
        | _ -> None);
  }

(* Publish [s] for exactly as long as the fiber runs: [match_with] and
   [continue] return once it suspends, finishes or crashes. *)
let start s f =
  let cell = Domain.DLS.get slot in
  cell.running <- s;
  let step = match_with f () (fiber_handler ()) in
  cell.running <- idle;
  step

let resume s k v =
  let cell = Domain.DLS.get slot in
  cell.running <- s;
  let step = continue k v in
  cell.running <- idle;
  step
