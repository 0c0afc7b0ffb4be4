type t = P4k | P64k | P1m | P16m | P256m | P1g

let bytes = function
  | P4k -> 4 * 1024
  | P64k -> 64 * 1024
  | P1m -> 1024 * 1024
  | P16m -> 16 * 1024 * 1024
  | P256m -> 256 * 1024 * 1024
  | P1g -> 1024 * 1024 * 1024

let all_descending = [ P1g; P256m; P16m; P1m; P64k; P4k ]
let large_descending = [ P1g; P256m; P16m; P1m ]
let aligned t addr = addr mod bytes t = 0
let align_up t addr = (addr + bytes t - 1) / bytes t * bytes t

let to_string = function
  | P4k -> "4K"
  | P64k -> "64K"
  | P1m -> "1M"
  | P16m -> "16M"
  | P256m -> "256M"
  | P1g -> "1G"

let pp ppf t = Format.pp_print_string ppf (to_string t)
