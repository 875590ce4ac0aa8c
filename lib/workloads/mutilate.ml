module Rng = Aurora_util.Rng

type op = Get of int | Set of int * int

type t = { keys : Zipf.t; rng : Rng.t; get_ratio : float }

let mean_value_bytes = 256

let create ?(nkeys = 1_000_000) ?(get_ratio = 0.9) ?(theta = 0.99) ~seed () =
  let rng = Rng.create seed in
  { keys = Zipf.create ~n:nkeys ~theta (Rng.split rng); rng; get_ratio }

let next t =
  let key = Zipf.sample t.keys in
  if Rng.float t.rng 1.0 < t.get_ratio then Get key
  else Set (key, Rng.int_in t.rng 64 (2 * mean_value_bytes))
