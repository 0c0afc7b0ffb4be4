let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let compute data ~pos ~len =
  let c = ref 0xffffffff in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Bytes.get_uint8 data i) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff
