let capacity = 64 * 1024

type t = {
  log : Aurora_sim.Genlog.t;
  pipe_id : int;
  buf : Buffer.t;
  mutable rd_open : bool;
  mutable wr_open : bool;
  mutable gen : int;
  knl : Kqueue.knlist;
}

let create log =
  {
    log;
    pipe_id = Aurora_sim.Genlog.fresh_id log;
    buf = Buffer.create 256;
    rd_open = true;
    wr_open = true;
    gen = 0;
    knl = Kqueue.knlist ();
  }

let id t = t.pipe_id
let generation t = t.gen
let touch t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note t.log t.pipe_id

let knlist t = t.knl

(* Both ends share one knlist: a write can wake readers, a read writers. *)
let changed t =
  touch t;
  Kqueue.activate t.knl

let write t data =
  let room = capacity - Buffer.length t.buf in
  let n = min room (String.length data) in
  Buffer.add_substring t.buf data 0 n;
  if n > 0 then changed t;
  n

let read t ~len =
  let n = min len (Buffer.length t.buf) in
  let out = Buffer.sub t.buf 0 n in
  let rest = Buffer.sub t.buf n (Buffer.length t.buf - n) in
  Buffer.clear t.buf;
  Buffer.add_string t.buf rest;
  if n > 0 then changed t;
  out

let buffered t = Buffer.length t.buf
let peek_all t = Buffer.contents t.buf

let refill t data =
  Buffer.clear t.buf;
  Buffer.add_string t.buf data;
  changed t

let close_read t =
  t.rd_open <- false;
  touch t

let close_write t =
  t.wr_open <- false;
  touch t

let read_open t = t.rd_open
let write_open t = t.wr_open

(* Test hook: mutate buffered contents WITHOUT bumping the generation, to
   model a kernel subsystem that forgot the stamp discipline.  Incremental
   checkpoints will persist stale state for this pipe; the restore-vs-model
   diff must catch it (negative control in the test suite). *)
let unstamped_poke_for_tests t data =
  Buffer.clear t.buf;
  Buffer.add_string t.buf data
