type record = { cycle : Cycles.t; label : string; value : int64 }

type t = {
  keep_records : bool;
  digest : Fnv.Acc.t;
  mutable count : int;
  mutable records : record list;  (* newest first *)
  mutable last_cycle : Cycles.t;
}

let create ?(keep_records = false) () =
  { keep_records; digest = Fnv.Acc.create (); count = 0; records = []; last_cycle = 0 }

let emit t ~cycle ~label ~value =
  Fnv.Acc.add_int t.digest cycle;
  Fnv.Acc.add_string t.digest label;
  Fnv.Acc.add_int64 t.digest value;
  t.count <- t.count + 1;
  t.last_cycle <- cycle;
  if t.keep_records then t.records <- { cycle; label; value } :: t.records

let digest t = Fnv.Acc.get t.digest
let count t = t.count
let records t = List.rev t.records

let iter t f =
  (* Oldest-first over the newest-first spine without materialising the
     reversed list; depth = number of retained records. *)
  let rec go = function
    | [] -> ()
    | r :: rest ->
      go rest;
      f r
  in
  go t.records

let last_cycle t = t.last_cycle
