(* A seeded function-ship scenario over the reliable (CRC-framed) CIO
   transport, with spans and the causal graph on.

   Six CNK ranks share one I/O node. Phase "files" runs every shippable
   call (mkdir, chdir, getcwd, open, write, pwrite, lseek, read, pread,
   fstat, stat, ftruncate, dup, fsync, readdir, rename, unlink, rmdir,
   close) including ones that fail, on a clean network. Phase "lossy"
   writes and reads back seeded blocks over a network that drops,
   corrupts and duplicates frames, while the CIOD crashes once and is
   restarted from its manifest. After boot and after each phase the
   program prints every value the ranks saw, the trace, span and causal
   digests, the sorted metric snapshot and an FNV of the CIOD's
   captured state. *)

open Bg_engine
open Bg_kabi
module Obs = Bg_obs.Obs
module Causal = Bg_obs.Causal
module Libc = Bg_rt.Libc
module Net = Bg_hw.Collective_net

let ranks = 6
let seed = 11L

let hex b =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b)))

let kind = function Sysreq.Regular -> "reg" | Sysreq.Directory -> "dir"

(* Per-rank logs, printed in rank order after each phase. *)
let logs = Array.make ranks []

let log fmt =
  Printf.ksprintf (fun s -> let r = Libc.rank () in logs.(r) <- s :: logs.(r)) fmt

(* Run [f], logging its value or the errno it failed with. *)
let call name show f =
  match f () with
  | v -> log "%s = %s" name (show v)
  | exception Sysreq.Syscall_error e -> log "%s ! %s" name (Errno.to_string e)

let int = string_of_int
let unit () = "()"
let stat s = Printf.sprintf "%s size %d perm %o" (kind s.Sysreq.st_kind) s.Sysreq.st_size s.Sysreq.st_perm
let creat = { Sysreq.o_rdwr with Sysreq.creat = true; trunc = true }

let files () =
  let r = Libc.rank () in
  let dir = Printf.sprintf "/r%d" r in
  call "mkdir" unit (fun () -> Libc.mkdir ~mode:0o755 dir);
  call "mkdir again" unit (fun () -> Libc.mkdir dir);
  call "chdir" unit (fun () -> Libc.chdir dir);
  call "getcwd" Fun.id Libc.getcwd;
  let fd = Libc.openf ~flags:creat ~mode:0o640 "data" in
  log "open = %d" fd;
  call "write" int (fun () -> Libc.write_string fd (String.make (17 + r) 'w'));
  call "pwrite" int (fun () -> Libc.pwrite fd (Bytes.make 9 (Char.chr (65 + r))) ~offset:40);
  call "lseek cur" int (fun () -> Libc.lseek fd ~offset:(-5) ~whence:Sysreq.Seek_cur);
  call "lseek end" int (fun () -> Libc.lseek fd ~offset:0 ~whence:Sysreq.Seek_end);
  call "lseek set" int (fun () -> Libc.lseek fd ~offset:3 ~whence:Sysreq.Seek_set);
  call "lseek neg" int (fun () -> Libc.lseek fd ~offset:(-9) ~whence:Sysreq.Seek_set);
  call "read" hex (fun () -> Libc.read fd ~len:12);
  call "pread" hex (fun () -> Libc.pread fd ~len:64 ~offset:30);
  call "fstat" stat (fun () -> Libc.fstat fd);
  call "ftruncate" unit (fun () -> Libc.ftruncate fd ~length:20);
  call "stat" stat (fun () -> Libc.stat "data");
  call "stat dir" stat (fun () -> Libc.stat dir);
  let fd2 = Libc.dup fd in
  log "dup = %d" fd2;
  call "pread dup" hex (fun () -> Libc.pread fd2 ~len:64 ~offset:0);
  call "fsync" unit (fun () -> Libc.fsync fd2);
  call "close dup" unit (fun () -> Libc.close fd2);
  call "close twice" unit (fun () -> Libc.close fd2);
  call "read closed" hex (fun () -> Libc.read fd2 ~len:1);
  let tmp = Libc.openf ~flags:creat "tmp" in
  call "close tmp" unit (fun () -> Libc.close tmp);
  call "rename" unit (fun () -> Libc.rename ~src:"tmp" ~dst:"kept");
  call "readdir" (String.concat ",") (fun () -> Libc.readdir ".");
  call "unlink" unit (fun () -> Libc.unlink "kept");
  call "unlink gone" unit (fun () -> Libc.unlink "kept");
  call "open missing" int (fun () -> Libc.openf ~flags:Sysreq.o_rdonly "/nope/file");
  call "rmdir busy" unit (fun () -> Libc.rmdir dir);
  call "chdir up" unit (fun () -> Libc.chdir "..");
  call "getcwd up" Fun.id Libc.getcwd;
  call "close" unit (fun () -> Libc.close fd)

let blocks = 24
let block_bytes = 96

let lossy data () =
  let r = Libc.rank () in
  let path = Printf.sprintf "/lossy%d" r in
  let fd = Libc.openf ~flags:creat path in
  Array.iteri
    (fun i b -> call (Printf.sprintf "pwrite %d" i) int (fun () -> Libc.pwrite fd b ~offset:(i * block_bytes)))
    data.(r);
  let back = ref Fnv.empty and same = ref 0 in
  Array.iteri
    (fun i b ->
      let got = Libc.pread fd ~len:block_bytes ~offset:(i * block_bytes) in
      back := Fnv.add_bytes !back got;
      if Bytes.equal got b then incr same)
    data.(r);
  log "readback %s, %d/%d blocks equal" (Fnv.to_hex !back) !same blocks;
  call "close" unit (fun () -> Libc.close fd)

let pp_value = function
  | Obs.Counter v -> Printf.sprintf "counter %d" v
  | Obs.Gauge v -> Printf.sprintf "gauge %d" v
  | Obs.Timer x ->
    Printf.sprintf "timer n=%d mean=%.17g min=%.17g max=%.17g sum=%.17g p50=%.17g p90=%.17g p99=%.17g p999=%.17g"
      x.n x.mean x.min x.max x.sum x.p50 x.p90 x.p99 x.p999

let ciod_line c label =
  let ciod = Cnk.Cluster.ciod c ~io_node:0 in
  let b = Buffer.create 4096 in
  Bg_cio.Ciod.capture ciod b;
  Printf.printf "%sciod served %d retransmits %d rejects %d crashes %d depth %d capture %d bytes %s\n"
    label (Bg_cio.Ciod.requests_served ciod) (Bg_cio.Ciod.retransmits_seen ciod)
    (Bg_cio.Ciod.queue_rejects ciod) (Bg_cio.Ciod.crashes ciod) (Bg_cio.Ciod.queue_depth ciod)
    (Buffer.length b)
    (Fnv.to_hex (Fnv.add_string Fnv.empty (Buffer.contents b)))

let report c phase =
  let m = Cnk.Cluster.machine c in
  let sim = Cnk.Cluster.sim c in
  let o = Machine.obs m and g = Machine.causal m in
  Printf.printf "== %s\n" phase;
  Array.iteri
    (fun r lines ->
      List.iter (fun s -> Printf.printf "r%d: %s\n" r s) (List.rev lines);
      logs.(r) <- [])
    logs;
  Printf.printf "events %d now %d trace %s\n" (Sim.events_fired sim) (Sim.now sim)
    (Fnv.to_hex (Trace.digest (Sim.trace sim)));
  Printf.printf "spans %d dropped %d open %d digest %s\n" (Obs.span_count o) (Obs.dropped_spans o)
    (Obs.open_count o) (Fnv.to_hex (Obs.digest o));
  Printf.printf "causal nodes %d edges %d dropped %d digest %s\n" (Causal.node_count g)
    (Causal.edge_count g) (Causal.dropped g) (Fnv.to_hex (Causal.digest g));
  List.iter
    (fun (x : Obs.metric) ->
      Printf.printf "metric %s.%s r%d c%d: %s\n" x.key.subsystem x.key.name x.key.rank x.key.core
        (pp_value x.value))
    (Obs.snapshot o);
  ciod_line c ""


let run_job c name body =
  match Cnk.Cluster.run_job c (Job.create ~name (Image.executable ~name body)) with
  | () -> ()
  | exception e -> Printf.printf "run %s: %s\n" name (Printexc.to_string e)

let () =
  let c =
    Cnk.Cluster.create ~seed ~dims:(ranks, 1, 1) ~nodes_per_io_node:ranks
      ~cio:Bg_cio.Reliable.default_on ()
  in
  let m = Cnk.Cluster.machine c in
  Obs.set_enabled (Machine.obs m) true;
  Causal.set_enabled (Machine.causal m) true;
  Cnk.Cluster.boot_all c;
  report c "boot";
  run_job c "files" files;
  report c "files";
  let rng = Rng.create seed in
  let data =
    Array.init ranks (fun _ ->
        Array.init blocks (fun _ -> Bytes.init block_bytes (fun _ -> Char.chr (Rng.int rng 256))))
  in
  Net.set_fault_config m.Machine.collective
    { Net.drop_rate = 0.1; corrupt_rate = 0.05; dup_rate = 0.05; jitter_max = 200 };
  let sim = Cnk.Cluster.sim c in
  let ciod = Cnk.Cluster.ciod c ~io_node:0 in
  let t0 = Sim.now sim in
  let at dt f = ignore (Sim.schedule_at sim (t0 + dt) f) in
  (* The CIOD's state mid-job: just before the crash (live proxies,
     cached replies, work in flight) and while it is down. *)
  at 2_599_000 (fun () -> ciod_line c "before crash: ");
  at 2_600_000 (fun () -> Bg_cio.Ciod.crash ciod);
  at 2_700_000 (fun () -> ciod_line c "while down: ");
  at 2_750_000 (fun () -> Bg_cio.Ciod.restart ciod);
  run_job c "lossy" (lossy data);
  report c "lossy"
