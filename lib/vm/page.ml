let logical_size = 4096
let payload_size = 64

(* A page's identity is the record itself (physical equality). *)
type t = { mutable data : bytes }

let alloc_sized ~payload =
  assert (payload > 0 && payload <= logical_size);
  { data = Bytes.make payload '\000' }

let alloc () = alloc_sized ~payload:payload_size
let alloc_full () = alloc_sized ~payload:logical_size
let alloc_init f = { data = Bytes.init payload_size f }
let copy t = { data = Bytes.copy t.data }

let fold t off =
  assert (off >= 0 && off < logical_size);
  off mod Bytes.length t.data

let get t off = Bytes.get t.data (fold t off)
let set t off c = Bytes.set t.data (fold t off) c
let blit_payload t = Bytes.copy t.data
let load_payload t b = t.data <- Bytes.copy b
let equal_content a b = Bytes.equal a.data b.data
