type t = int

let frequency_hz = 850_000_000.0
let of_seconds s = int_of_float (Float.round (s *. frequency_hz))
let of_us us = of_seconds (us *. 1e-6)
let to_seconds c = float_of_int c /. frequency_hz
let to_ns c = to_seconds c *. 1e9
let to_us c = to_seconds c *. 1e6

let pp ppf c =
  let ns = to_ns c in
  if ns < 1e3 then Format.fprintf ppf "%.0fns" ns
  else if ns < 1e6 then Format.fprintf ppf "%.2fus" (ns /. 1e3)
  else if ns < 1e9 then Format.fprintf ppf "%.2fms" (ns /. 1e6)
  else Format.fprintf ppf "%.2fs" (ns /. 1e9)
