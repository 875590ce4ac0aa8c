(* Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) —
   the checksum the checkpoint manifests and replication frames carry. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc b ~pos ~len =
  let t = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let update_le crc v ~bytes =
  if bytes < 0 || bytes > 8 then invalid_arg "Crc32.update_le";
  let t = Lazy.force table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = 0 to bytes - 1 do
    c := t.((!c lxor (v asr (8 * i))) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let of_bytes ?(crc = 0) b = update crc b ~pos:0 ~len:(Bytes.length b)
let of_string ?(crc = 0) s = of_bytes ~crc (Bytes.unsafe_of_string s)
