(* A growable little-endian byte buffer.  Unlike [Buffer.t] it can be
   reset and reused, and a count written before the items it counts can
   be patched in place once they are known. *)
type writer = { mutable buf : bytes; mutable len : int }

let writer () = { buf = Bytes.create 256; len = 0 }
let reset w = w.len <- 0
let length w = w.len

let reserve w n =
  let need = w.len + n in
  if need > Bytes.length w.buf then begin
    let nb = Bytes.create (max need (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 nb 0 w.len;
    w.buf <- nb
  end

let u8 w v =
  reserve w 1;
  Bytes.set_uint8 w.buf w.len (v land 0xff);
  w.len <- w.len + 1

let set_u32 w ~at v =
  assert (v >= 0 && v < 0x1_0000_0000);
  if at < 0 || at + 4 > w.len then invalid_arg "Wire.set_u32";
  Bytes.set_int32_le w.buf at (Int32.of_int v)

let u32 w v =
  assert (v >= 0 && v < 0x1_0000_0000);
  reserve w 4;
  Bytes.set_int32_le w.buf w.len (Int32.of_int v);
  w.len <- w.len + 4

let u64 w v =
  reserve w 8;
  Bytes.set_int64_le w.buf w.len (Int64.of_int v);
  w.len <- w.len + 8

let str w s =
  let n = String.length s in
  u32 w n;
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let list w f l =
  u32 w (List.length l);
  List.iter f l

let contents w = Bytes.sub w.buf 0 w.len
let to_string w = Bytes.sub_string w.buf 0 w.len

type reader = { data : bytes; mutable pos : int }

exception Corrupt of string

let reader data = { data; pos = 0 }

let need r n =
  if r.pos + n > Bytes.length r.data then
    raise (Corrupt (Printf.sprintf "short read at %d (+%d of %d)" r.pos n (Bytes.length r.data)))

let ru8 r =
  need r 1;
  let v = Bytes.get_uint8 r.data r.pos in
  r.pos <- r.pos + 1;
  v

let ru32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.data r.pos) land 0xffff_ffff in
  r.pos <- r.pos + 4;
  v

let ru64 r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let rstr r =
  let n = ru32 r in
  need r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let rlist r f =
  let n = ru32 r in
  List.init n (fun _ -> f r)

let remaining r = Bytes.length r.data - r.pos
let pos r = r.pos
