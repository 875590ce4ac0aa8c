module Vm_object = Aurora_vm.Vm_object

type kind = Posix_shm of string | Sysv_shm of int

type t = {
  shm_id : int;
  shm_kind : kind;
  pages : int;
  mutable vobj : Vm_object.t;
  mutable gen : int;
}

let create log shm_kind ~npages =
  {
    shm_id = Aurora_sim.Genlog.fresh_id log;
    shm_kind;
    pages = npages;
    vobj = Vm_object.create Vm_object.Anonymous;
    gen = 0;
  }

let id t = t.shm_id
let kind t = t.shm_kind
let npages t = t.pages
let backing t = t.vobj
let generation t = t.gen

(* No generation bump: system shadowing swings the backmap at EVERY
   checkpoint, but the serialized image names the stable memory-object
   oid, not the transient shadow — stamping here would defeat skipping. *)
let set_backing t o = t.vobj <- o
