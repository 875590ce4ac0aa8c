(* Every call the benchmark makes into the program, each behind a host
   probe named after the function and filed under its lib/ layer. *)

module Http_sim = Aurora_apps.Http_sim
module Memcached_sim = Aurora_apps.Memcached_sim
module Sls = Aurora_core.Sls
module Group = Aurora_core.Group
module Restore = Aurora_core.Restore
module Store = Aurora_objstore.Store
module Striped = Aurora_block.Striped
module Vm_space = Aurora_vm.Vm_space
module Link = Aurora_net.Link
module Machine = Aurora_kern.Machine

let k_boot = Probe.kind ~layer:"core" "Sls.boot"
let k_attach = Probe.kind ~layer:"core" "Sls.attach"
let k_checkpoint = Probe.kind ~layer:"core" "Group.checkpoint"
let k_restore = Probe.kind ~layer:"core" "Restore.restore_verified"
let k_create = Probe.kind ~layer:"apps" "Http_sim.create"
let k_connect = Probe.kind ~layer:"kern" "Http_sim.connect"
let k_keepalive = Probe.kind ~layer:"kern" "Http_sim.keepalive"
let k_feed = Probe.kind ~layer:"apps" "Http_sim.feed"
let k_kv_create = Probe.kind ~layer:"apps" "Memcached_sim.create"
let k_kv_op = Probe.kind ~layer:"apps" "Memcached_sim.get/set"
let k_vm_op = Probe.kind ~layer:"vm" "Vm_space.read_byte/touch_write"
let k_run_hook = Probe.kind ~layer:"kern" "Machine.set_run_hook"
let k_crash = Probe.kind ~layer:"block" "Striped.crash"
let k_recover = Probe.kind ~layer:"objstore" "Store.recover"
let k_prune = Probe.kind ~layer:"objstore" "Store.prune_history"
let k_delivery = Probe.kind ~layer:"net" "Link.delivery_time"

(* Traced runs also record the program's own virtual-clock spans, on
   the clock of the first machine booted (later machines share it). *)
let boot () =
  let sys = Probe.call k_boot Sls.boot in
  if Probe.traced () && not (Aurora_obs.Trace.is_on ()) then
    Aurora_obs.Trace.enable ~clock:sys.Sls.machine.Machine.clock ();
  sys
let attach ~period_ns sys procs = Probe.call k_attach (fun () -> Sls.attach ~period_ns sys procs)

let checkpoint ?wait_durable group =
  Probe.call k_checkpoint (fun () -> Group.checkpoint ?wait_durable group)

let restore_verified ~machine ~store =
  Probe.call k_restore (fun () ->
      Restore.restore_verified ~machine ~store ~lazy_pages:true ())

let http_create ~machine ~workers ~dynamic_pages =
  Probe.call k_create (fun () -> Http_sim.create ~machine ~workers ~dynamic_pages ())

let connect srv = Probe.call k_connect (fun () -> Http_sim.connect srv)
let keepalive srv c = Probe.call ~req:c.Http_sim.c_id k_keepalive (fun () -> Http_sim.keepalive srv c)

let feed ?on srv c ~now bytes =
  Probe.call ~req:c.Http_sim.c_id k_feed (fun () -> Http_sim.feed srv c ~now ?on bytes)

let kv_create ~machine ~nkeys = Probe.call k_kv_create (fun () -> Memcached_sim.create ~machine ~nkeys)
let kv_get app key = Probe.call ~req:key k_kv_op (fun () -> Memcached_sim.get app key)

let kv_set app key ~value_bytes =
  Probe.call ~req:key k_kv_op (fun () -> Memcached_sim.set app key ~value_bytes)

let vm_read space ~key ~addr =
  Probe.call ~req:key k_vm_op (fun () -> ignore (Vm_space.read_byte space ~addr))

let vm_write space ~key ~addr ~len =
  Probe.call ~req:key k_vm_op (fun () -> Vm_space.touch_write space ~addr ~len)

let set_run_hook machine hook = Probe.call k_run_hook (fun () -> Machine.set_run_hook machine hook)
let crash dev ~now = Probe.call k_crash (fun () -> Striped.crash dev ~now)
let recover ~dev ~clock = Probe.call k_recover (fun () -> Store.recover ~dev ~clock)
let prune store ~keep = Probe.call k_prune (fun () -> ignore (Store.prune_history store ~keep))

let delivery_time link ~now ~bytes =
  Probe.call k_delivery (fun () -> Link.delivery_time link ~now ~bytes)
