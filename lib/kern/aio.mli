(** Asynchronous I/O requests (paper section 5.3).

    AIOs are issued by kernel threads or the device itself; a checkpoint
    must account for them: in-flight {e writes} delay the checkpoint's
    completion until their data is incorporated, while in-flight {e reads}
    are recorded in the checkpoint and reissued during restore. *)

type op = Aio_read | Aio_write

type t = {
  aio_id : int;
  aio_op : op;
  aio_slot : int;  (** the fd the request was issued against *)
  aio_off : int;
  aio_len : int;
  mutable done_at : int;  (** virtual completion time *)
  mutable result : string option;  (** read data, available at completion *)
}

val create :
  Aurora_sim.Genlog.t -> op:op -> slot:int -> off:int -> len:int -> done_at:int -> t
