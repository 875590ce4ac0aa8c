type op = Aio_read | Aio_write

type t = {
  aio_id : int;
  aio_op : op;
  aio_slot : int;
  aio_off : int;
  aio_len : int;
  mutable done_at : int;
  mutable result : string option;
}

let create log ~op ~slot ~off ~len ~done_at =
  {
    aio_id = Aurora_sim.Genlog.fresh_id log;
    aio_op = op;
    aio_slot = slot;
    aio_off = off;
    aio_len = len;
    done_at;
    result = None;
  }
