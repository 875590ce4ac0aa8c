type termios = { mutable echo : bool; mutable canonical : bool; mutable baud : int }

type t = {
  log : Aurora_sim.Genlog.t;
  pty_id : int;
  unit_no : int;
  tio : termios;
  input : Buffer.t; (* master -> slave *)
  output : Buffer.t; (* slave -> master *)
  mutable gen : int;
}

let create log ~unit_no =
  {
    log;
    pty_id = Aurora_sim.Genlog.fresh_id log;
    unit_no;
    tio = { echo = true; canonical = true; baud = 38400 };
    input = Buffer.create 128;
    output = Buffer.create 128;
    gen = 0;
  }

let id t = t.pty_id
let unit_number t = t.unit_no
let termios t = t.tio
let generation t = t.gen
let touch t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note t.log t.pty_id

let set_termios t ~echo ~canonical ~baud =
  t.tio.echo <- echo;
  t.tio.canonical <- canonical;
  t.tio.baud <- baud;
  touch t

let drain t buf ~len =
  let n = min len (Buffer.length buf) in
  let out = Buffer.sub buf 0 n in
  let rest = Buffer.sub buf n (Buffer.length buf - n) in
  Buffer.clear buf;
  Buffer.add_string buf rest;
  if n > 0 then touch t;
  out

let master_write t s =
  Buffer.add_string t.input s;
  if String.length s > 0 then touch t

let slave_read t ~len = drain t t.input ~len

let slave_write t s =
  Buffer.add_string t.output s;
  if String.length s > 0 then touch t

let master_read t ~len = drain t t.output ~len
let in_buffered t = Buffer.contents t.input
let out_buffered t = Buffer.contents t.output

let refill t ~input ~output =
  Buffer.clear t.input;
  Buffer.add_string t.input input;
  Buffer.clear t.output;
  Buffer.add_string t.output output;
  touch t
