type kind =
  | Vnode_file of { vn : Vnode.t; mutable offset : int; mutable append : bool }
  | Pipe_read of Pipe.t
  | Pipe_write of Pipe.t
  | Socket_fd of Socket.t
  | Kqueue_fd of Kqueue.t
  | Pty_master_fd of Pty.t
  | Pty_slave_fd of Pty.t
  | Shm_fd of Shm.t
  | Device_fd of string

type t = {
  log : Aurora_sim.Genlog.t;
  desc_id : int;
  kind : kind;
  mutable refs : int;
  mutable ext_sync : bool;
  mutable gen : int;
}

let create log kind =
  (match kind with
  | Vnode_file { vn; _ } -> Vnode.opened vn
  | Pipe_read _ | Pipe_write _ | Socket_fd _ | Kqueue_fd _ | Pty_master_fd _
  | Pty_slave_fd _ | Shm_fd _ | Device_fd _ ->
      ());
  let desc_id = Aurora_sim.Genlog.fresh_id log in
  { log; desc_id; kind; refs = 1; ext_sync = true; gen = 0 }

let generation t = t.gen
let touch t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note t.log t.desc_id

let set_ext_sync t v =
  if t.ext_sync <> v then touch t;
  t.ext_sync <- v

let set_offset t off =
  match t.kind with
  | Vnode_file f ->
      if f.offset <> off then touch t;
      f.offset <- off
  | _ -> invalid_arg "Fdesc.set_offset: not a vnode-backed description"

(* Reference counting is fd-table bookkeeping, not serialized state: no
   stamp.  (When refs hits zero the description stops being checkpointed
   altogether.) *)
let retain t = t.refs <- t.refs + 1

let release t =
  assert (t.refs > 0);
  t.refs <- t.refs - 1;
  if t.refs = 0 then
    match t.kind with
    | Vnode_file { vn; _ } -> Vnode.closed vn
    | Pipe_read p -> Pipe.close_read p
    | Pipe_write p -> Pipe.close_write p
    | Socket_fd _ | Kqueue_fd _ | Pty_master_fd _ | Pty_slave_fd _ | Shm_fd _
    | Device_fd _ ->
        ()

let kind_name t =
  match t.kind with
  | Vnode_file _ -> "vnode"
  | Pipe_read _ -> "pipe(r)"
  | Pipe_write _ -> "pipe(w)"
  | Socket_fd _ -> "socket"
  | Kqueue_fd _ -> "kqueue"
  | Pty_master_fd _ -> "pty(m)"
  | Pty_slave_fd _ -> "pty(s)"
  | Shm_fd _ -> "shm"
  | Device_fd _ -> "device"
