let logical_size = 4096
let payload_size = 64

(* [digest] memoizes the 62-bit content hash and compressibility class;
   every mutation path resets it to [None]. *)
type t = {
  pid : int;
  mutable data : bytes;
  mutable digest : (int * Aurora_util.Rle.cls) option;
}

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let alloc_sized ~payload =
  assert (payload > 0 && payload <= logical_size);
  { pid = fresh_id (); data = Bytes.make payload '\000'; digest = None }

let alloc () = alloc_sized ~payload:payload_size
let alloc_full () = alloc_sized ~payload:logical_size

let alloc_init f =
  { pid = fresh_id (); data = Bytes.init payload_size f; digest = None }

let id t = t.pid
let copy t = { pid = fresh_id (); data = Bytes.copy t.data; digest = t.digest }

let fold t off =
  assert (off >= 0 && off < logical_size);
  off mod Bytes.length t.data

let get t off = Bytes.get t.data (fold t off)

let set t off c =
  t.digest <- None;
  Bytes.set t.data (fold t off) c

let blit_payload t = Bytes.copy t.data

let load_payload t b =
  t.digest <- None;
  t.data <- Bytes.copy b

let equal_content a b = Bytes.equal a.data b.data

let force_digest t =
  match t.digest with
  | Some d -> d
  | None ->
      let d =
        (Aurora_util.Hash64.of_bytes t.data, Aurora_util.Rle.classify t.data)
      in
      t.digest <- Some d;
      d

let content_hash t = fst (force_digest t)
let fingerprint = content_hash
