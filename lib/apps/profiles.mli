(** Synthetic process profiles for the Table 6 applications.

    Each profile captures what the paper says drives checkpoint cost: the
    resident set size and the {e complexity of the OS state} — number of
    address-space objects, file descriptors, threads, and processes
    ("vim and pillow have small memory footprints, but complex OS state
    including hundreds of address space objects").  {!build} constructs
    real processes with that shape on the simulated kernel, so the
    checkpoint and restore costs come out of the ordinary SLS paths. *)

type profile = {
  app_name : string;
  mem_mib : int;
  nprocs : int;
  threads_per_proc : int;
  vm_entries : int;  (** per process *)
  fds : int;  (** per process: a mix of files, sockets and pipes *)
}

val mosh : profile
val vim : profile
val all : profile list

val build :
  Aurora_core.Sls.system -> profile -> Aurora_kern.Process.t list
(** Create the process tree, map and touch the memory, open the
    descriptors. *)
