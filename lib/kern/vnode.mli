(** Vnodes: the kernel half of files.

    A vnode is shared by every file descriptor open on the same file (each
    `open` gets its own descriptor and offset; all of them reach the same
    vnode).  File data is the page set of the vnode's backing VM object, so
    read/write and mmap share pages — the unification the Aurora object
    store relies on ("memory mapped regions and files are treated
    identically").

    The link count counts directory entries; {!open_count} counts open file
    descriptions.  An anonymous file (open but unlinked) has [links = 0],
    [open_count > 0] — conventional filesystems reclaim it on crash, the
    Aurora FS keeps it alive through a hidden reference (section 5.2). *)

type t

val create : inode:int -> t

val inode : t -> int

val backing : t -> Aurora_vm.Vm_object.t
(** The Vnode_backed VM object holding the file's pages. *)

val size : t -> int
val set_size : t -> int -> unit

val generation : t -> int
(** Monotonic mutation stamp over data and metadata (size, links, page
    contents).  The file system compares it against the stamp of the last
    staged image so metadata-only changes (truncate, link count) restage
    the vnode even when no page is dirty. *)

val links : t -> int
val link : t -> unit
val unlink : t -> unit

val open_count : t -> int
val opened : t -> unit
val closed : t -> unit

val is_anonymous : t -> bool
(** Open but fully unlinked. *)

val read : t -> clock:Aurora_sim.Clock.t -> off:int -> len:int -> string
(** Read bytes (clamped to the file size). *)

val write : t -> clock:Aurora_sim.Clock.t -> off:int -> string -> unit
(** Write bytes, extending the file if needed, dirtying the pages. *)

val dirty_count : t -> int

val mark_dirty : t -> int -> unit
(** Record page [idx] as modified — used when the MMU dirty bits of a
    memory mapping of this file are harvested at checkpoint time. *)

val take_dirty : t -> int list
(** Page indices written since the last call, sorted; clears the set.  The
    file system uses this to stage only dirty pages into a checkpoint. *)

val page : t -> int -> Aurora_vm.Page.t option
(** Resident page [idx], if any. *)

val load_page : t -> int -> bytes -> unit
(** Install a page payload (restore path). *)
