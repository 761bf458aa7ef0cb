(* epoll: an interest list + ready list over the Pollable seam.

   Each registered fd holds one [entry]; a Pollable watcher enqueues
   the entry onto the ready queue when an edge intersects its interest
   mask. `epoll_wait` therefore touches only the *ready* queue — its
   cost scales with ready fds, never with registered fds (the
   `epoll.scan_work` counter measures exactly the entries examined per
   wait, and the c10k bench gates on it staying flat as idle
   registrations grow).

   Triggering modes over the ready queue:
   - LT: a reported entry whose level still intersects its interest is
     re-appended — it stays visible until drained.
   - ET: a reported entry is dequeued; only a fresh edge publication
     re-queues it (no re-report without a transition).
   - ONESHOT: reported once, then disarmed until EPOLL_CTL_MOD.

   EPOLLERR/EPOLLHUP are always reported regardless of the requested
   mask, as on Linux. *)

let epollin = Pollable.pollin
let epollpri = Pollable.pollpri
let epollout = Pollable.pollout
let epollerr = Pollable.pollerr
let epollhup = Pollable.pollhup
let epollrdhup = Pollable.pollrdhup
let epolloneshot = 1 lsl 30
let epollet = 1 lsl 31

(* epoll_ctl ops *)
let op_add = 1
let op_del = 2
let op_mod = 3

type entry = {
  e_fd : int;
  e_pollable : Pollable.t;
  mutable e_events : int; (* interest mask incl. ET/ONESHOT flags *)
  mutable e_data : int64; (* opaque user cookie, returned verbatim *)
  mutable e_queued : bool; (* on the ready queue *)
  mutable e_disarmed : bool; (* ONESHOT fired, awaiting MOD *)
  mutable e_dead : bool; (* DEL'd or instance closed *)
  mutable e_watcher : Pollable.watcher option;
}

type t = {
  id : int;
  interest : (int, entry) Hashtbl.t;
  ready : entry Queue.t;
  wq : Ostd.Wait_queue.t;
  pollable : Pollable.t; (* the epoll fd is itself pollable (nesting) *)
  mutable closed : bool;
}

let next_id = ref 0
let reset_ids () = next_id := 0

(* Bits [wait] may report for an entry: the requested readiness bits
   plus ERR/HUP which are unmaskable. *)
let report_mask e =
  e.e_events land (epollin lor epollout lor epollpri lor epollrdhup) lor epollerr lor epollhup

let ready_count t =
  Queue.fold (fun n e -> if e.e_dead then n else n + 1) 0 t.ready

let enqueue t e =
  if (not e.e_dead) && (not e.e_disarmed) && not e.e_queued then begin
    e.e_queued <- true;
    Queue.push e t.ready;
    ignore (Ostd.Wait_queue.wake_all t.wq : int);
    Pollable.publish t.pollable Pollable.pollin
  end

let create () =
  incr next_id;
  let t =
    {
      id = !next_id;
      interest = Hashtbl.create 64;
      ready = Queue.create ();
      wq = Ostd.Wait_queue.create ();
      pollable = Pollable.create (fun () -> 0);
      closed = false;
    }
  in
  Pollable.set_level t.pollable (fun () -> if ready_count t > 0 then Pollable.pollin else 0);
  t

let pollable t = t.pollable
let id t = t.id
let interest_count t = Hashtbl.length t.interest

let ctl_add t ~fd ~pollable:p ~events ~data =
  if Hashtbl.mem t.interest fd then Error Errno.eexist
  else begin
    let e =
      {
        e_fd = fd;
        e_pollable = p;
        e_events = events;
        e_data = data;
        e_queued = false;
        e_disarmed = false;
        e_dead = false;
        e_watcher = None;
      }
    in
    let w =
      Pollable.attach p (fun edge ->
          if edge land Pollable.pollfree <> 0 then begin
            (* Object destroyed: drop the registration, as Linux does
               when the last reference to a registered file goes away.
               The watcher list is being cleared by [Pollable.free], so
               no detach — just forget the entry. *)
            e.e_dead <- true;
            e.e_watcher <- None;
            Hashtbl.remove t.interest e.e_fd
          end
          else if edge land report_mask e <> 0 then enqueue t e)
    in
    e.e_watcher <- Some w;
    Hashtbl.replace t.interest fd e;
    (* Linux reports already-pending readiness on ADD, even for ET. *)
    if Pollable.level p land report_mask e <> 0 then enqueue t e;
    Ok ()
  end

let ctl_mod t ~fd ~events ~data =
  match Hashtbl.find_opt t.interest fd with
  | None -> Error Errno.enoent
  | Some e ->
    e.e_events <- events;
    e.e_data <- data;
    e.e_disarmed <- false;
    if Pollable.level e.e_pollable land report_mask e <> 0 then enqueue t e;
    Ok ()

let ctl_del t ~fd =
  match Hashtbl.find_opt t.interest fd with
  | None -> Error Errno.enoent
  | Some e ->
    e.e_dead <- true;
    (match e.e_watcher with Some w -> Pollable.detach e.e_pollable w | None -> ());
    e.e_watcher <- None;
    Hashtbl.remove t.interest fd;
    (* A queued dead entry is skipped (and dropped) by the next sweep. *)
    Ok ()

(* Drain up to [maxevents] ready entries. The budget pins the sweep to
   the entries present at entry time so LT re-appends can't spin it. *)
let collect t ~maxevents =
  let out = ref [] in
  let n = ref 0 in
  let budget = ref (Queue.length t.ready) in
  while !n < maxevents && !budget > 0 do
    decr budget;
    let e = Queue.pop t.ready in
    Sim.Stats.incr "epoll.scan_work";
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.fd_lookup;
    if e.e_dead then e.e_queued <- false
    else begin
      let r = Pollable.level e.e_pollable land report_mask e in
      if r = 0 then e.e_queued <- false (* consumed before we looked *)
      else begin
        out := (e.e_data, r) :: !out;
        incr n;
        if e.e_events land epolloneshot <> 0 then begin
          e.e_disarmed <- true;
          e.e_queued <- false
        end
        else if e.e_events land epollet <> 0 then e.e_queued <- false
        else Queue.push e t.ready
      end
    end
  done;
  List.rev !out

(* timeout_cycles < 0: block until ready; 0: non-blocking probe;
   > 0: block, returning [] at exactly now+timeout_cycles (virtual)
   if nothing became ready. Each timed sleep arms one deadline event
   and charges one timer programming. *)
let wait t ~maxevents ~timeout_cycles =
  Sim.Stats.incr "epoll.wait_calls";
  if maxevents <= 0 then []
  else begin
    let deadline = Int64.add (Sim.Clock.now ()) (Int64.of_int timeout_cycles) in
    let woken () = t.closed || not (Queue.is_empty t.ready) in
    let rec go () =
      let evs = collect t ~maxevents in
      if evs <> [] then begin
        Sim.Stats.incr "epoll.wakeups";
        evs
      end
      else if t.closed || timeout_cycles = 0 then evs
      else if timeout_cycles < 0 then begin
        Ostd.Wait_queue.sleep t.wq;
        go ()
      end
      else if Int64.compare (Sim.Clock.now ()) deadline >= 0 then []
      else begin
        Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.timer_program;
        if Ostd.Wait_queue.sleep_until_deadline t.wq ~deadline woken then go () else []
      end
    in
    go ()
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    Hashtbl.iter
      (fun _ e ->
        e.e_dead <- true;
        match e.e_watcher with
        | Some w ->
          Pollable.detach e.e_pollable w;
          e.e_watcher <- None
        | None -> ())
      t.interest;
    Hashtbl.reset t.interest;
    Queue.clear t.ready;
    ignore (Ostd.Wait_queue.wake_all t.wq : int)
  end

(* /proc/<pid>/fdinfo-style rendering: one line per registration, the
   way Linux prints "tfd: ... events: ... data: ...". *)
let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "epoll:%d interest:%d ready:%d\n" t.id (Hashtbl.length t.interest)
       (ready_count t));
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.interest [] in
  let entries = List.sort (fun a b -> compare a.e_fd b.e_fd) entries in
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "tfd: %d events: %8x data: %Lx%s%s\n" e.e_fd
           (e.e_events land 0xffffffff) e.e_data
           (if e.e_queued then " ready" else "")
           (if e.e_disarmed then " oneshot-disarmed" else "")))
    entries;
  Buffer.contents b
