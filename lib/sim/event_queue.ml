(* A binary min-heap on (time, seq).  The sequence number breaks ties so that
   same-instant events fire in insertion order. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry option array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { heap = Array.make 64 None; len = 0; next_seq = 0 }
let length t = t.len

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let get t i =
  match t.heap.(i) with
  | Some e -> e
  | None -> assert false

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier (get t i) (get t parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && earlier (get t l) (get t !smallest) then smallest := l;
  if r < t.len && earlier (get t r) (get t !smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let schedule t ~time payload =
  if t.len = Array.length t.heap then begin
    let bigger = Array.make (2 * t.len) None in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end;
  t.heap.(t.len) <- Some { time; seq = t.next_seq; payload };
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = get t 0 in
    t.len <- t.len - 1;
    t.heap.(0) <- t.heap.(t.len);
    t.heap.(t.len) <- None;
    if t.len > 0 then sift_down t 0;
    Some (top.time, top.payload)
  end

let peek_time t = if t.len = 0 then None else Some (get t 0).time

let run t ~clock ~handler ~until =
  let rec loop () =
    match peek_time t with
    | None -> ()
    | Some time when time > until -> ()
    | Some _ -> (
        match pop t with
        | None -> ()
        | Some (time, payload) ->
            Clock.advance_to clock time;
            handler time payload;
            loop ())
  in
  loop ()
