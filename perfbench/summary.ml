(* The benchmark's own statistics, failure accounting and record format,
   kept apart from the workloads so the self-tests can pin every rule
   exactly. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Summary.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles data ~n:4] with the default
   'exclusive' method, so the quartiles this benchmark prints are the
   ones an external checker computes from the same values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  match ld with
  | 0 -> invalid_arg "Summary.quartiles: no samples"
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* The highest standard percentile (nearest rank) with at least ten
   samples beyond it, or [None] when there are too few samples to report
   any tail. *)
let tail_percentile xs =
  let n = List.length xs in
  let a = Array.of_list (sorted xs) in
  List.find_map
    (fun permille ->
      let rank = max 1 (((permille * n) + 999) / 1000) in
      if n - rank < 10 then None
      else Some (float_of_int permille /. 10.0, a.(rank - 1)))
    [ 999; 990; 950; 900; 750; 500 ]

(* Host speed. The host this benchmark runs on is shared, and its speed
   shifts by up to half from one minute to the next. Every time is
   therefore reported at a reference speed: [raw * reference_probe_s /
   probe_s], where [probe_s] is what calibrate.exe's fixed kernel took
   just before the measurement and [reference_probe_s] what it takes at
   the reference speed. *)
let reference_probe_s = 0.025

let scale ~probe_s x = x *. reference_probe_s /. probe_s

(* Checked operations: a run whose deterministic counters differ from the
   reference counts as one more failure on top of the failed checks. *)
type tally = { attempted : int; failed : int }

let no_ops = { attempted = 0; failed = 0 }

let add_ops a b = { attempted = a.attempted + b.attempted; failed = a.failed + b.failed }

let check t ok = { attempted = t.attempted + 1; failed = (t.failed + if ok then 0 else 1) }

let failed_frac t =
  if t.attempted = 0 then 1.0 else float_of_int t.failed /. float_of_int t.attempted

(* ------------------------------------------------------------------ *)
(* JSON: enough to write the run record and the result line. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (Bg_obs.Export.json_escape s);
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (Str k);
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  emit b j;
  Buffer.contents b

(* A metric in the result line: value plus unit. *)
let metric value unit_ = Obj [ ("value", Num value); ("unit", Str unit_) ]

(* The last line of standard output. *)
let result_line ~correct ~tally ~metrics =
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Num (float_of_int tally.attempted));
      ("failed", Num (float_of_int tally.failed));
      ("metrics", Obj (List.map (fun (name, v, u) -> (name, metric v u)) metrics));
    ]
