type domain = Inet | Unix_dom
type proto = Udp | Tcp
type addr = { host : string; port : int }
type msg = { data : string; ctl_fds : int list }

type tcp_state =
  | Tcp_closed
  | Tcp_listening
  | Tcp_established of { mutable snd_seq : int; mutable rcv_seq : int }

type t = {
  log : Aurora_sim.Genlog.t;
  sock_id : int;
  dom : domain;
  prot : proto;
  mutable laddr : addr option;
  mutable raddr : addr option;
  mutable opts : (string * int) list;
  mutable state : tcp_state;
  mutable accept_q : t list; (* oldest first *)
  mutable sock_peer : t option;
  recvq : msg Queue.t;
  sendq : msg Queue.t;
  mutable gen : int;
  knl : Kqueue.knlist;
}

let create log dom prot =
  {
    log;
    sock_id = Aurora_sim.Genlog.fresh_id log;
    dom;
    prot;
    laddr = None;
    raddr = None;
    opts = [];
    state = Tcp_closed;
    accept_q = [];
    sock_peer = None;
    recvq = Queue.create ();
    sendq = Queue.create ();
    gen = 0;
    knl = Kqueue.knlist ();
  }

let id t = t.sock_id
let domain t = t.dom
let proto t = t.prot
let generation t = t.gen
let touch t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note t.log t.sock_id

let bind t a =
  t.laddr <- Some a;
  touch t

let connect t a =
  t.raddr <- Some a;
  touch t

let local_addr t = t.laddr
let remote_addr t = t.raddr

let set_option t k v =
  t.opts <- (k, v) :: List.remove_assoc k t.opts;
  touch t

let options t = t.opts
let tcp_state t = t.state

let knlist t = t.knl

(* Which readiness test applies depends on the TCP state. *)
let set_tcp_state t s =
  t.state <- s;
  touch t;
  Kqueue.activate t.knl

let listen t = set_tcp_state t Tcp_listening

let accept_enqueue t conn =
  t.accept_q <- t.accept_q @ [ conn ];
  Kqueue.activate t.knl

let accept_dequeue t =
  match t.accept_q with
  | [] -> None
  | conn :: rest ->
      t.accept_q <- rest;
      Some conn

let accept_queue_length t = List.length t.accept_q

let pair a b =
  a.sock_peer <- Some b;
  b.sock_peer <- Some a;
  touch a;
  touch b

let peer t = t.sock_peer

let send t m =
  match t.sock_peer with
  | Some p ->
      Queue.push m p.recvq;
      touch p;
      Kqueue.activate p.knl
  | None ->
      Queue.push m t.sendq;
      touch t

let recv t =
  let m = Queue.take_opt t.recvq in
  (match m with Some _ -> touch t | None -> ());
  m

let recv_pending t = not (Queue.is_empty t.recvq)
let buffered q = List.rev (Queue.fold (fun acc m -> m :: acc) [] q)
let recv_buffered t = buffered t.recvq
let send_buffered t = buffered t.sendq

let iter_buffered t f =
  Queue.iter f t.recvq;
  Queue.iter f t.sendq

let refill t ~recvq ~sendq =
  Queue.clear t.recvq;
  List.iter (fun m -> Queue.push m t.recvq) recvq;
  Queue.clear t.sendq;
  List.iter (fun m -> Queue.push m t.sendq) sendq;
  touch t;
  Kqueue.activate t.knl

let buffered_bytes t =
  let sum q = Queue.fold (fun acc m -> acc + String.length m.data) 0 q in
  sum t.recvq + sum t.sendq
