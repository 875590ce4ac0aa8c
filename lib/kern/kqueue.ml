type filter = Ev_read | Ev_write | Ev_timer | Ev_signal | Ev_proc
type kevent = { ident : int; filter : filter; flags : int; udata : int }

type knote = {
  kn_kq : t;
  mutable kn_ev : kevent;
  mutable kn_seq : int;  (* registration order: larger is newer *)
  mutable kn_active : bool;  (* on [kn_kq]'s active queue *)
  mutable kn_live : bool;  (* still registered *)
  mutable kn_list : knlist;  (* the knlist it hangs on, or [detached] *)
}

and knlist = { mutable notes : knote list }

and t = {
  log : Aurora_sim.Genlog.t;
  kq_id : int;
  mutable gen : int;
  knotes : (int, knote) Hashtbl.t;  (* keyed by [key ident filter] *)
  mutable next_seq : int;
  mutable queue : knote array;  (* active queue, activation order *)
  mutable queued : int;
  mutable poller : fd_watch;
}

and fd_watch = { mutable polled : t list }

let detached = { notes = [] }
let no_poller = { polled = [] }

let create log =
  {
    log;
    kq_id = Aurora_sim.Genlog.fresh_id log;
    gen = 0;
    knotes = Hashtbl.create 16;
    next_seq = 0;
    queue = [||];
    queued = 0;
    poller = no_poller;
  }

let id t = t.kq_id
let generation t = t.gen

let touch t =
  t.gen <- t.gen + 1;
  Aurora_sim.Genlog.note t.log t.kq_id

let filter_code = function
  | Ev_read -> 0
  | Ev_write -> 1
  | Ev_timer -> 2
  | Ev_signal -> 3
  | Ev_proc -> 4

let all_filters = [ Ev_read; Ev_write; Ev_timer; Ev_signal; Ev_proc ]
let key ident filter = (ident lsl 3) lor filter_code filter

(* Knotes ------------------------------------------------------------------ *)

let event kn = kn.kn_ev

let enqueue kn =
  if kn.kn_live && not kn.kn_active then begin
    let kq = kn.kn_kq in
    if kq.queued = Array.length kq.queue then begin
      let bigger = Array.make (max 16 (2 * kq.queued)) kn in
      Array.blit kq.queue 0 bigger 0 kq.queued;
      kq.queue <- bigger
    end;
    kq.queue.(kq.queued) <- kn;
    kq.queued <- kq.queued + 1;
    kn.kn_active <- true
  end

let knlist () = { notes = [] }
let activate l = List.iter enqueue l.notes

let detach kn =
  if kn.kn_list != detached then begin
    let l = kn.kn_list in
    l.notes <- List.filter (fun k -> k != kn) l.notes;
    kn.kn_list <- detached
  end

let attach kn l =
  if kn.kn_list != l then begin
    detach kn;
    l.notes <- kn :: l.notes;
    kn.kn_list <- l
  end

(* Registrations ----------------------------------------------------------- *)

(* Insert or replace without stamping; the new or replaced knote is newest
   and queued, so the next poll re-validates it. *)
let upsert t ev =
  let k = key ev.ident ev.filter in
  let kn =
    match Hashtbl.find t.knotes k with
    | kn ->
        kn.kn_ev <- ev;
        kn
    | exception Not_found ->
        let kn =
          {
            kn_kq = t;
            kn_ev = ev;
            kn_seq = 0;
            kn_active = false;
            kn_live = true;
            kn_list = detached;
          }
        in
        Hashtbl.replace t.knotes k kn;
        kn
  in
  kn.kn_seq <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  enqueue kn

let register t ev =
  upsert t ev;
  touch t

let deregister t ~ident ~filter =
  let k = key ident filter in
  (match Hashtbl.find t.knotes k with
  | kn ->
      Hashtbl.remove t.knotes k;
      kn.kn_live <- false;
      detach kn
  | exception Not_found -> ());
  touch t

let events t =
  Hashtbl.fold (fun _ kn acc -> kn :: acc) t.knotes []
  |> List.sort (fun a b -> compare b.kn_seq a.kn_seq)
  |> List.map event

let event_count t = Hashtbl.length t.knotes

let replace_events t evs =
  Hashtbl.iter
    (fun _ kn ->
      kn.kn_live <- false;
      detach kn)
    t.knotes;
  Hashtbl.reset t.knotes;
  (* Oldest first, so the list head ends up newest. *)
  List.iter (upsert t) (List.rev evs);
  touch t

(* Polling ----------------------------------------------------------------- *)

let fd_watch () = { polled = [] }

let set_poller t w =
  if t.poller != w then begin
    t.poller <- w;
    if not (List.memq t w.polled) then w.polled <- t :: w.polled;
    Hashtbl.iter (fun _ kn -> enqueue kn) t.knotes
  end

let slot_changed w ~slot =
  List.iter
    (fun kq ->
      if kq.poller == w then
        List.iter
          (fun f ->
            match Hashtbl.find kq.knotes (key slot f) with
            | kn -> enqueue kn
            | exception Not_found -> ())
          all_filters)
    w.polled

let poll t ~ready =
  let kept = ref 0 in
  let out = ref [] in
  for i = 0 to t.queued - 1 do
    let kn = t.queue.(i) in
    if kn.kn_live && ready kn then begin
      t.queue.(!kept) <- kn;
      incr kept;
      out := kn.kn_ev :: !out
    end
    else kn.kn_active <- false
  done;
  t.queued <- !kept;
  List.rev !out
