(* Fault counters of one or more address spaces, as plain values. *)

module Vm_space = Aurora_vm.Vm_space

type t = { stale_refaults : int; cow_faults : int; pageins : int }

let zero = { stale_refaults = 0; cow_faults = 0; pageins = 0 }

let snapshot space =
  let s = Vm_space.stats space in
  {
    stale_refaults = s.Vm_space.stale_refaults;
    cow_faults = s.Vm_space.cow_faults;
    pageins = s.Vm_space.pageins;
  }

let add a b =
  {
    stale_refaults = a.stale_refaults + b.stale_refaults;
    cow_faults = a.cow_faults + b.cow_faults;
    pageins = a.pageins + b.pageins;
  }

let diff a b =
  {
    stale_refaults = a.stale_refaults - b.stale_refaults;
    cow_faults = a.cow_faults - b.cow_faults;
    pageins = a.pageins - b.pageins;
  }

let report d =
  Report.v "vm.stale_refaults" "count" (float_of_int d.stale_refaults);
  Report.v "vm.cow_faults" "count" (float_of_int d.cow_faults);
  Report.v "vm.pageins" "count" (float_of_int d.pageins)
