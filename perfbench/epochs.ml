(* Per-epoch checkpoint accounting from the public [Group.ckpt_stats]:
   the stop window and its phases, the OS-object pass, and the store's
   flush statistics.  Every epoch is checked against the stop-window
   invariant; only epochs inside the measured window enter the figures. *)

module Group = Aurora_core.Group
module Store = Aurora_objstore.Store
module Histogram = Aurora_util.Histogram
module Page = Aurora_vm.Page

type t = {
  stop : Histogram.t;
  quiesce : Histogram.t;
  serialize : Histogram.t;
  shadow : Histogram.t;
  validate : Histogram.t;
  speculate : Histogram.t;
  flush : Histogram.t;
  lag : Histogram.t;
  mutable epochs : int;
  mutable objects : int;
  mutable skipped : int;
  mutable conflicts : int;
  mutable bytes : int;
  mutable dirty_pages : int;
  mutable staged : int;
  mutable deduped : int;
  mutable comp_in : int;
  mutable comp_out : int;
  mutable leaf_hits : int;
  mutable leaf_misses : int;
  mutable dev_writes : int;
  mutable violations : int;
  mutable checked : int;
}

let create () =
  let h () = Histogram.create () in
  {
    stop = h ();
    quiesce = h ();
    serialize = h ();
    shadow = h ();
    validate = h ();
    speculate = h ();
    flush = h ();
    lag = h ();
    epochs = 0;
    objects = 0;
    skipped = 0;
    conflicts = 0;
    bytes = 0;
    dirty_pages = 0;
    staged = 0;
    deduped = 0;
    comp_in = 0;
    comp_out = 0;
    leaf_hits = 0;
    leaf_misses = 0;
    dev_writes = 0;
    violations = 0;
    checked = 0;
  }

(* [now] is the virtual time [Group.checkpoint] returned at, so
   [durable_at - now] is the flush tail the application does not wait
   for. *)
let record t ~measured ~now (s : Group.ckpt_stats) =
  t.checked <- t.checked + 1;
  if s.Group.stop_ns < s.Group.quiesce_ns + s.Group.validate_ns then
    t.violations <- t.violations + 1;
  if measured then begin
    let ns h x = Histogram.add h (float_of_int x) in
    t.epochs <- t.epochs + 1;
    ns t.stop s.Group.stop_ns;
    ns t.quiesce s.Group.quiesce_ns;
    ns t.serialize s.Group.os_serialize_ns;
    ns t.shadow s.Group.mem_mark_ns;
    ns t.validate s.Group.validate_ns;
    ns t.speculate s.Group.speculate_ns;
    ns t.flush s.Group.flush_ns;
    ns t.lag (max 0 (s.Group.durable_at - now));
    t.objects <- t.objects + s.Group.objects_serialized;
    t.skipped <- t.skipped + s.Group.objects_skipped;
    t.conflicts <- t.conflicts + s.Group.conflict_objects;
    t.bytes <- t.bytes + s.Group.bytes_written;
    t.dirty_pages <- t.dirty_pages + s.Group.pages_flushed;
    match s.Group.flush with
    | None -> ()
    | Some f ->
        t.staged <- t.staged + f.Store.fs_pages;
        t.deduped <- t.deduped + f.Store.fs_pages_deduped;
        t.comp_in <- t.comp_in + f.Store.fs_comp_in;
        t.comp_out <- t.comp_out + f.Store.fs_comp_out;
        t.leaf_hits <- t.leaf_hits + f.Store.fs_leaf_hits;
        t.leaf_misses <- t.leaf_misses + f.Store.fs_leaf_misses;
        t.dev_writes <- t.dev_writes + f.Store.fs_dev_writes
  end

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let us ns = ns /. 1e3

let check t =
  Report.check "stop_ns >= quiesce_ns + validate_ns on every epoch"
    (t.violations = 0 && t.checked > 0)
    (Printf.sprintf "%d of %d epochs violate it" t.violations t.checked)

let report t =
  let n = t.epochs in
  let med name h = Report.v ~samples:n name "us" (us (Histogram.percentile h 50.0)) in
  med "stop_p50_us" t.stop;
  Report.v ~samples:n "stop_p90_us" "us" (us (Histogram.percentile t.stop 90.0));
  Report.v ~samples:t.dirty_pages "bytes_per_dirty_byte" "ratio"
    (ratio t.bytes (t.dirty_pages * Page.logical_size));
  med "core.quiesce_us" t.quiesce;
  med "core.serialize_us" t.serialize;
  med "core.shadow_us" t.shadow;
  med "core.validate_us" t.validate;
  med "core.speculate_us" t.speculate;
  Report.v ~samples:n "core.objects_serialized" "count" (ratio t.objects n);
  Report.v ~samples:n "core.objects_skipped" "count" (ratio t.skipped n);
  Report.v ~samples:t.objects "core.conflict_ratio" "ratio" (ratio t.conflicts t.objects);
  med "objstore.flush_us" t.flush;
  med "objstore.durable_lag_us" t.lag;
  Report.v ~samples:t.staged "objstore.dedup_ratio" "ratio" (ratio t.deduped t.staged);
  Report.v ~samples:t.comp_out "objstore.compress_ratio" "ratio" (ratio t.comp_in t.comp_out);
  Report.v
    ~samples:(t.leaf_hits + t.leaf_misses)
    "objstore.leaf_hit_ratio" "ratio"
    (ratio t.leaf_hits (t.leaf_hits + t.leaf_misses));
  Report.v ~samples:n "objstore.bytes_per_epoch" "bytes" (ratio t.bytes n);
  Report.v ~samples:n "block.dev_writes_per_epoch" "count" (ratio t.dev_writes n)
