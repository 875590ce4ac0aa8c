type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { samples = Array.make 1024 0.0; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.samples then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 bigger 0 t.len;
    t.samples <- bigger
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.len

let clear t =
  t.len <- 0;
  t.sorted <- true

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.samples.(i)
  done;
  !acc

let mean t =
  if t.len = 0 then 0.0 else fold ( +. ) 0.0 t /. float_of_int t.len

let stddev t =
  if t.len = 0 then 0.0
  else begin
    let m = mean t in
    let sq = fold (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 t in
    sqrt (sq /. float_of_int t.len)
  end

let max t = if t.len = 0 then 0.0 else fold Stdlib.max neg_infinity t

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.samples 0 t.len in
    Array.sort compare live;
    Array.blit live 0 t.samples 0 t.len;
    t.sorted <- true
  end

let percentile t p =
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.len)) in
    let idx = Stdlib.max 0 (Stdlib.min (t.len - 1) (rank - 1)) in
    t.samples.(idx)
  end

let percentile_interp t p =
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    let p = Stdlib.max 0.0 (Stdlib.min 100.0 p) in
    if t.len = 1 then t.samples.(0)
    else begin
      (* Linear interpolation between closest order statistics
         (inclusive method): rank p maps onto [0, len-1] exactly, so
         p0 is the minimum and p100 the maximum with no clamping
         artifacts on tiny sample sets. *)
      let rank = p /. 100.0 *. float_of_int (t.len - 1) in
      let lo = int_of_float (floor rank) in
      let hi = Stdlib.min (t.len - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      t.samples.(lo) +. (frac *. (t.samples.(hi) -. t.samples.(lo)))
    end
  end

let merge dst src =
  for i = 0 to src.len - 1 do
    add dst src.samples.(i)
  done
