let mss = Packet.mss

(* Every pinned frame released anywhere must count net.zc_unpin so the
   pin/unpin conservation gate balances against Page_cache's zc_pin. *)
let drop_pins pins =
  List.iter
    (fun f ->
      Sim.Stats.incr "net.zc_unpin";
      Ostd.Frame.drop f)
    pins

(* Growable byte FIFO used for send queues and receive buffers. A chunk
   may carry pinned page-cache frames (zero-copy sendfile); the pins
   travel with the chunk's final byte, so the packet that consumes a
   chunk inherits them and they stay live until that packet's TX
   completes. *)
module Fifo = struct
  type chunk = { data : Bytes.t; off : int ref; mutable pins : Ostd.Frame.t list }

  type t = { q : chunk Queue.t; mutable len : int }

  let create () = { q = Queue.create (); len = 0 }

  let length t = t.len

  let push ?(pins = []) t b pos n =
    if n > 0 then begin
      Queue.push { data = Bytes.sub b pos n; off = ref 0; pins } t.q;
      t.len <- t.len + n
    end
    else drop_pins pins

  (* Receive-side drain into a caller buffer. Receive buffers never hold
     pins; if one ever did, release the frames rather than leak them. *)
  let pop_into t buf pos n =
    let moved = ref 0 in
    while !moved < n && not (Queue.is_empty t.q) do
      let c = Queue.peek t.q in
      let avail = Bytes.length c.data - !(c.off) in
      let take = min avail (n - !moved) in
      Bytes.blit c.data !(c.off) buf (pos + !moved) take;
      c.off := !(c.off) + take;
      moved := !moved + take;
      if !(c.off) = Bytes.length c.data then begin
        drop_pins c.pins;
        ignore (Queue.pop t.q)
      end
    done;
    t.len <- t.len - !moved;
    !moved

  (* Transmit-side pop: returns the bytes plus the pins of every chunk
     fully consumed by this segment (ownership transfers to the caller's
     packet). *)
  let pop t n =
    let out = Bytes.create (min n t.len) in
    let want = Bytes.length out in
    let moved = ref 0 in
    let pins = ref [] in
    while !moved < want && not (Queue.is_empty t.q) do
      let c = Queue.peek t.q in
      let avail = Bytes.length c.data - !(c.off) in
      let take = min avail (want - !moved) in
      Bytes.blit c.data !(c.off) out !moved take;
      c.off := !(c.off) + take;
      moved := !moved + take;
      if !(c.off) = Bytes.length c.data then begin
        pins := !pins @ c.pins;
        ignore (Queue.pop t.q)
      end
    done;
    t.len <- t.len - !moved;
    ((if !moved = want then out else Bytes.sub out 0 !moved), !pins)

  (* Abandon queued data (connection reset): drop any pinned frames so
     zero-copy conservation holds even on error paths. *)
  let drain_pins t =
    Queue.iter
      (fun c ->
        drop_pins c.pins;
        c.pins <- [])
      t.q
end

type conn_state = Syn_sent | Syn_rcvd | Established | Closed

type engine = {
  stack : Netstack.t;
  cc : bool;
  conns : (int * int * int, conn) Hashtbl.t; (* (local port, remote ip, remote port) *)
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
}

and listener = {
  l_eng : engine;
  l_port : int;
  backlog : conn Queue.t;
  l_backlog_max : int; (* listen(2) backlog cap; SYNs beyond it drop *)
  accept_wq : Ostd.Wait_queue.t;
  l_pollable : Pollable.t; (* POLLIN while the accept queue is non-empty *)
}

and conn = {
  eng : engine;
  lip : int; (* local address: loopback connections stay on 127.0.0.1 *)
  seg_limit : int; (* loopback takes GSO-sized segments, the wire takes MSS *)
  lport : int;
  rip : int;
  rport : int;
  mutable state : conn_state;
  (* send side *)
  txq : Fifo.t;
  inflight : (int * Bytes.t) Queue.t; (* (seq, payload) *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable peer_win : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable rto_event : Sim.Events.handle option;
  snd_wq : Ostd.Wait_queue.t;
  (* receive side *)
  rcvbuf : Fifo.t;
  rcvbuf_cap : int;
  mutable rcv_nxt : int;
  mutable peer_fin : bool;
  mutable local_closed : bool;
  mutable reset : bool;
  mutable timed_out : bool; (* handshake retries exhausted *)
  rcv_wq : Ostd.Wait_queue.t;
  conn_wq : Ostd.Wait_queue.t;
  mutable delack_event : Sim.Events.handle option;
  mutable unacked : int; (* bytes received since the last ACK we sent *)
  mutable rx_segments : int; (* data segments received on this connection *)
  mutable nodelay : bool; (* TCP_NODELAY: disable the Nagle hold *)
  mutable tx_soft_errors : int; (* driver gave up on a frame; RTO repairs it *)
  pollable : Pollable.t; (* readiness seam: edges published below *)
}

let rto_cycles = Sim.Clock.us 40_000. (* 40 ms *)

(* A lossy or fault-injected link can eat SYN / SYN-ACK; data has the
   RTO to cover it, the handshake needs its own bounded retransmit or a
   connect sleeps forever. *)
let handshake_max_tries = 8

let initial_cwnd = 10 * mss

(* Send-buffer capacity per connection, bytes. *)
let sndbuf_cap = 256 * 1024

let key c = (c.lport, c.rip, c.rport)

(* Per-segment transmit processing; sub-MSS writes are charged at the
   send(2) call instead (see [send]). With GSO a "segment" here is a
   super-segment of up to [Packet.gso_max_size] bytes — one charge for what the
   software baseline pays per MSS. Checksum offload carves the software
   checksum share out of the per-segment cost: the device computes it. *)
let charge_tx eng =
  let c = Sim.Cost.c () in
  let csum =
    if (Sim.Profile.get ()).Sim.Profile.csum_tx_offload then c.Sim.Profile.tcp_csum_cycles
    else 0
  in
  Netstack.charge eng.stack (max 0 (c.Sim.Profile.tcp_tx_segment - csum))

(* Receive processing: tiny segments take the header-prediction fast
   path; full segments pay the per-segment base plus a per-byte part.
   With checksum offload the device verified the frame, so the per-byte
   pass runs at twice the rate (no software checksum touch). GRO hands
   this function one merged super-segment per burst — the invocation
   count itself ([tcp.rx_calls], guest only) is what the GRO ablation
   gates on. *)
let charge_rx eng len =
  let c = Sim.Cost.c () in
  if not (Netstack.is_host eng.stack) then Sim.Stats.incr "tcp.rx_calls";
  if len < mss then
    Netstack.charge eng.stack (c.Sim.Profile.tcp_rx_small + (len / c.Sim.Profile.tcp_rx_small_bpc))
  else begin
    let bpc =
      if (Sim.Profile.get ()).Sim.Profile.csum_rx_offload then 2 * c.Sim.Profile.tcp_rx_bpc
      else c.Sim.Profile.tcp_rx_bpc
    in
    Netstack.charge eng.stack (c.Sim.Profile.tcp_rx_segment + (len / bpc))
  end

let free_window conn = conn.rcvbuf_cap - Fifo.length conn.rcvbuf

let make_conn eng ~lip ~lport ~rip ~rport ~state =
  (* Connection object setup (socket buffers, timers, hash insertion,
     firewall hooks) — where a full Linux stack pays far more than a
     lean smoltcp-style one. *)
  Netstack.charge eng.stack (Sim.Cost.c ()).Sim.Profile.tcp_conn_setup;
  let p = Sim.Profile.get () in
  let loopback = rip = Netstack.loopback_ip || rip = Netstack.ip eng.stack in
  (* Loopback behaves like an infinite-MTU device; on the wire, GSO/TSO
     hands super-segments (up to [Packet.gso_max_size]) to the NIC,
     which splits them into MSS wire frames at ring time, while a stack
     without the offload segments to MSS in software. Host-side client
     stacks model the host's Linux and always use GSO (the host bridge
     performs the wire split, see {!Kernel.attach_host}). *)
  let wire_seg =
    if p.Sim.Profile.tcp_gso || Netstack.is_host eng.stack then Packet.gso_max_size else mss
  in
  let conn =
  {
    eng;
    lip;
    seg_limit = (if loopback then Packet.gso_max_size else wire_seg);
    lport;
    rip;
    rport;
    state;
    txq = Fifo.create ();
    inflight = Queue.create ();
    snd_una = 0;
    snd_nxt = 0;
    peer_win = 64 * 1024;
    cwnd = initial_cwnd;
    ssthresh = max_int;
    rto_event = None;
    snd_wq = Ostd.Wait_queue.create ();
    rcvbuf = Fifo.create ();
    rcvbuf_cap = 256 * 1024;
    rcv_nxt = 0;
    peer_fin = false;
    local_closed = false;
    reset = false;
    timed_out = false;
    rcv_wq = Ostd.Wait_queue.create ();
    conn_wq = Ostd.Wait_queue.create ();
    delack_event = None;
    unacked = 0;
    rx_segments = 0;
    nodelay = false;
    tx_soft_errors = 0;
    pollable = Pollable.create (fun () -> 0);
  }
  in
  (* Level semantics (see DESIGN §4k): readable on buffered data, EOF
     or reset; writable only while established with send-buffer space;
     HUP/RDHUP on peer close; ERR on reset. *)
  Pollable.set_level conn.pollable (fun () ->
      (if Fifo.length conn.rcvbuf > 0 || conn.peer_fin || conn.reset then Pollable.pollin else 0)
      lor (if conn.peer_fin then Pollable.pollrdhup lor Pollable.pollhup else 0)
      lor (if conn.reset then Pollable.pollerr lor Pollable.pollhup else 0)
      lor
      if
        conn.state = Established && (not conn.local_closed) && (not conn.reset)
        && Fifo.length conn.txq < sndbuf_cap
      then Pollable.pollout
      else 0);
  conn

let emit conn ?(flags = Packet.ack_flag) ?(seq = 0) ?(pins = []) payload =
  let p =
    Packet.make ~src_ip:conn.lip ~dst_ip:conn.rip ~proto:Packet.Tcp
      ~src_port:conn.lport ~dst_port:conn.rport ~flags ~seq ~ack:conn.rcv_nxt
      ~win:(free_window conn) payload
  in
  p.Packet.pins <- pins;
  Netstack.send conn.eng.stack p

let send_pure_ack conn =
  (match conn.delack_event with
  | Some ev ->
    Sim.Events.cancel ev;
    conn.delack_event <- None
  | None -> ());
  conn.unacked <- 0;
  emit conn Bytes.empty

let delack_cycles = Sim.Clock.us 500.

(* Delayed ACK: full segments in a stream are acknowledged every other
   segment (or after a short timer); sub-MSS arrivals ACK immediately so
   Nagle on the other side never stalls a ping-pong. *)
let ack_after_data conn len =
  conn.unacked <- conn.unacked + len;
  conn.rx_segments <- conn.rx_segments + 1;
  if len < mss || conn.unacked >= 2 * mss then send_pure_ack conn
  else if conn.delack_event = None then
    conn.delack_event <-
      Some
        (Sim.Events.schedule_after delack_cycles (fun () ->
             conn.delack_event <- None;
             if conn.unacked > 0 then send_pure_ack conn))

(* --- Transmit machinery --- *)

let effective_window conn =
  let w = if conn.eng.cc then min conn.peer_win conn.cwnd else conn.peer_win in
  w - (conn.snd_nxt - conn.snd_una)

let rec arm_rto conn =
  match conn.rto_event with
  | Some _ -> ()
  | None ->
    if not (Queue.is_empty conn.inflight) then
      conn.rto_event <- Some (Sim.Events.schedule_after rto_cycles (fun () -> on_rto conn))

and on_rto conn =
  conn.rto_event <- None;
  if not (Queue.is_empty conn.inflight) then begin
    Sim.Stats.incr "degrade.retried.tcp_rto";
    (* Reno reaction. *)
    if conn.eng.cc then begin
      conn.ssthresh <- max ((conn.snd_nxt - conn.snd_una) / 2) (2 * mss);
      conn.cwnd <- 2 * mss
    end;
    let seq, payload = Queue.peek conn.inflight in
    charge_tx conn.eng;
    emit conn ~seq payload;
    arm_rto conn
  end

let try_transmit conn =
  if conn.state = Established || conn.state = Syn_rcvd then begin
    let was_full = Fifo.length conn.txq >= sndbuf_cap in
    let continue = ref true in
    while !continue do
      let w = effective_window conn in
      let avail = Fifo.length conn.txq in
      if w <= 0 || avail = 0 then continue := false
      else if
        avail < min mss conn.seg_limit
        && (not (Queue.is_empty conn.inflight))
        && (not conn.nodelay)
        && not conn.local_closed
      then
        (* Nagle / autocork: hold a sub-MSS tail while data is in flight,
           so small-write streams coalesce into full segments. *)
        continue := false
      else begin
        let seg = min conn.seg_limit (min w avail) in
        let payload, pins = Fifo.pop conn.txq seg in
        (* Sub-MSS segments were already charged at the send(2) call. *)
        if seg >= mss then charge_tx conn.eng;
        (* PSH on the segment that empties the send queue: the receiver's
           GRO engine flushes its merge on it, so the tail of a burst is
           delivered immediately instead of waiting for the NAPI idle
           poll. Retransmits (from [inflight]) go out without it, which
           is harmless — a flag discontinuity also flushes. *)
        let flags =
          if Fifo.length conn.txq = 0 then Packet.ack_flag lor Packet.psh
          else Packet.ack_flag
        in
        emit conn ~flags ~seq:conn.snd_nxt ~pins payload;
        Queue.push (conn.snd_nxt, payload) conn.inflight;
        conn.snd_nxt <- conn.snd_nxt + seg
      end
    done;
    arm_rto conn;
    (* Space may have opened up for blocked senders. *)
    if Fifo.length conn.txq < sndbuf_cap then begin
      ignore (Ostd.Wait_queue.wake_all conn.snd_wq);
      (* A full→space transition is the only genuine POLLOUT edge —
         publishing on every ACK would hand ET consumers events with
         no state change behind them. *)
      if was_full then Pollable.publish conn.pollable Pollable.pollout
    end
  end

let maybe_send_fin conn =
  if
    conn.local_closed
    && Fifo.length conn.txq = 0
    && Queue.is_empty conn.inflight
    && conn.state = Established
  then begin
    emit conn ~flags:(Packet.fin lor Packet.ack_flag) Bytes.empty;
    conn.state <- Closed
  end

(* --- Receive path --- *)

let on_ack conn (p : Packet.t) =
  if p.Packet.ack > conn.snd_una then begin
    let acked = p.Packet.ack - conn.snd_una in
    conn.snd_una <- p.Packet.ack;
    (* Drop fully-acked segments. *)
    let continue = ref true in
    while !continue && not (Queue.is_empty conn.inflight) do
      let seq, payload = Queue.peek conn.inflight in
      if seq + Bytes.length payload <= conn.snd_una then ignore (Queue.pop conn.inflight)
      else continue := false
    done;
    (* Restart the retransmission timer on forward progress. *)
    (match conn.rto_event with
    | Some ev ->
      Sim.Events.cancel ev;
      conn.rto_event <- None
    | None -> ());
    (* Byte-counting congestion control (RFC 3465): credit the bytes the
       ACK covers, not the ACK's arrival. A GRO receiver acknowledges
       once per coalesced super-segment — up to 45 MSS per ACK — and a
       per-ACK increment would ramp cwnd ~20x slower behind such a
       receiver, stalling the sender on its own congestion window. For
       sub-MSS ACKs (ping-pong, delayed-ACK-off) the two rules agree. *)
    if conn.eng.cc then
      if conn.cwnd < conn.ssthresh then conn.cwnd <- conn.cwnd + acked
      else conn.cwnd <- conn.cwnd + max 1 (acked * mss / conn.cwnd)
  end;
  conn.peer_win <- p.Packet.win;
  try_transmit conn;
  maybe_send_fin conn;
  ignore (Ostd.Wait_queue.wake_all conn.snd_wq)

let on_data conn (p : Packet.t) =
  let len = Bytes.length p.Packet.payload in
  if len > 0 then begin
    if p.Packet.seq = conn.rcv_nxt && free_window conn >= len then begin
      charge_rx conn.eng len;
      Fifo.push conn.rcvbuf p.Packet.payload 0 len;
      conn.rcv_nxt <- conn.rcv_nxt + len;
      ack_after_data conn len;
      ignore (Ostd.Wait_queue.wake_all conn.rcv_wq);
      Pollable.publish conn.pollable Pollable.pollin
    end
    else begin
      (* Duplicate or out-of-window: re-ack so the sender resynchronises. *)
      if p.Packet.seq = conn.rcv_nxt then Sim.Stats.incr "tcp.drop_nospace"
      else if p.Packet.seq < conn.rcv_nxt then Sim.Stats.incr "tcp.drop_dup"
      else Sim.Stats.incr "tcp.drop_ooo";
      send_pure_ack conn
    end
  end

let engine_rx eng (p : Packet.t) =
  let k = (p.Packet.dst_port, p.Packet.src_ip, p.Packet.src_port) in
  match Hashtbl.find_opt eng.conns k with
  | Some conn ->
    if p.Packet.flags land Packet.rst <> 0 then begin
      conn.reset <- true;
      conn.state <- Closed;
      (* Abandoning the send queue: release any zero-copy pins so the
         pin/unpin conservation invariant survives connection resets. *)
      Fifo.drain_pins conn.txq;
      ignore (Ostd.Wait_queue.wake_all conn.rcv_wq);
      ignore (Ostd.Wait_queue.wake_all conn.snd_wq);
      ignore (Ostd.Wait_queue.wake_all conn.conn_wq);
      Pollable.publish conn.pollable
        (Pollable.pollin lor Pollable.pollerr lor Pollable.pollhup)
    end
    else begin
      (match conn.state with
      | Syn_sent when p.Packet.flags land Packet.syn <> 0 ->
        conn.state <- Established;
        send_pure_ack conn;
        ignore (Ostd.Wait_queue.wake_all conn.conn_wq);
        Pollable.publish conn.pollable Pollable.pollout
      | Syn_rcvd when p.Packet.flags land Packet.ack_flag <> 0 -> (
        conn.state <- Established;
        match Hashtbl.find_opt eng.listeners conn.lport with
        | Some l ->
          Queue.push conn l.backlog;
          ignore (Ostd.Wait_queue.wake_one l.accept_wq);
          Pollable.publish l.l_pollable Pollable.pollin
        | None -> ())
      | _ -> ());
      if conn.state = Established || conn.state = Closed then begin
        if p.Packet.flags land Packet.ack_flag <> 0 then on_ack conn p;
        on_data conn p;
        if p.Packet.flags land Packet.fin <> 0 then begin
          conn.peer_fin <- true;
          conn.rcv_nxt <- conn.rcv_nxt + 1;
          send_pure_ack conn;
          ignore (Ostd.Wait_queue.wake_all conn.rcv_wq);
          Pollable.publish conn.pollable
            (Pollable.pollin lor Pollable.pollhup lor Pollable.pollrdhup)
        end
      end
    end
  | None -> (
    (* No connection: a SYN may create one via a listener. *)
    if p.Packet.flags land Packet.syn <> 0 then begin
      match Hashtbl.find_opt eng.listeners p.Packet.dst_port with
      | Some l when Queue.length l.backlog >= l.l_backlog_max ->
        (* listen(2) backlog full: drop the SYN on the floor. The
           client's handshake retransmit retries after an RTO, by which
           time accept(2) has usually drained the queue — exactly how
           Linux sheds an accept storm without RSTing it. *)
        Sim.Stats.incr "tcp.listen_overflow"
      | Some _ ->
        let conn =
          make_conn eng ~lip:p.Packet.dst_ip ~lport:p.Packet.dst_port ~rip:p.Packet.src_ip
            ~rport:p.Packet.src_port ~state:Syn_rcvd
        in
        Hashtbl.replace eng.conns (key conn) conn;
        emit conn ~flags:(Packet.syn lor Packet.ack_flag) Bytes.empty;
        let rec rexmit n () =
          if conn.state = Syn_rcvd then begin
            if n >= handshake_max_tries then Hashtbl.remove eng.conns (key conn)
            else begin
              Sim.Stats.incr "degrade.retried.tcp_synack";
              emit conn ~flags:(Packet.syn lor Packet.ack_flag) Bytes.empty;
              ignore (Sim.Events.schedule_after rto_cycles (rexmit (n + 1)))
            end
          end
        in
        ignore (Sim.Events.schedule_after rto_cycles (rexmit 1))
      | None ->
        (* Connection refused. *)
        Netstack.send eng.stack
          (Packet.make ~src_ip:p.Packet.dst_ip ~dst_ip:p.Packet.src_ip ~proto:Packet.Tcp
             ~src_port:p.Packet.dst_port ~dst_port:p.Packet.src_port ~flags:Packet.rst
             Bytes.empty)
    end
    else if p.Packet.flags land Packet.rst = 0 then
      Netstack.send eng.stack
        (Packet.make ~src_ip:p.Packet.dst_ip ~dst_ip:p.Packet.src_ip ~proto:Packet.Tcp
           ~src_port:p.Packet.dst_port ~dst_port:p.Packet.src_port ~flags:Packet.rst
           Bytes.empty))

(* The driver exhausted its retries (or quarantined the buffer) for an
   outgoing frame. The byte stream is repaired by the normal RTO
   machinery; here we only attribute the soft error to the owning
   connection so it lands on the right socket, not a neighbour sharing
   the burst. *)
let on_tx_error eng (p : Packet.t) =
  match p.Packet.proto with
  | Packet.Tcp -> (
    let k = (p.Packet.src_port, p.Packet.dst_ip, p.Packet.dst_port) in
    match Hashtbl.find_opt eng.conns k with
    | Some conn ->
      conn.tx_soft_errors <- conn.tx_soft_errors + 1;
      Sim.Stats.incr "tcp.tx_soft_err"
    | None -> Sim.Stats.incr "net.tx_err_unclaimed")
  | Packet.Udp -> Sim.Stats.incr "net.tx_err_unclaimed"

let create_engine stack ~cc =
  let eng =
    { stack; cc; conns = Hashtbl.create 64; listeners = Hashtbl.create 8; next_ephemeral = 33000 }
  in
  Netstack.set_tcp_rx stack (engine_rx eng);
  Netstack.set_tx_err stack (on_tx_error eng);
  eng

(* --- Public API --- *)

let listen ?(backlog = 128) eng ~port =
  if Hashtbl.mem eng.listeners port then Error Errno.eaddrinuse
  else begin
    let l =
      {
        l_eng = eng;
        l_port = port;
        backlog = Queue.create ();
        l_backlog_max = max 1 backlog;
        accept_wq = Ostd.Wait_queue.create ();
        l_pollable = Pollable.create (fun () -> 0);
      }
    in
    Pollable.set_level l.l_pollable (fun () ->
        if Queue.is_empty l.backlog then 0 else Pollable.pollin);
    Hashtbl.replace eng.listeners port l;
    Ok l
  end

let pending l = Queue.length l.backlog

let accept l =
  Ostd.Wait_queue.sleep_until l.accept_wq (fun () -> not (Queue.is_empty l.backlog));
  Queue.pop l.backlog

(* Non-blocking accept: the O_NONBLOCK / accept4 path. *)
let accept_opt l = if Queue.is_empty l.backlog then None else Some (Queue.pop l.backlog)

let connect eng ~dst_ip ~dst_port =
  Netstack.charge eng.stack (Sim.Cost.c ()).Sim.Profile.tcp_small_write;
  let lport = eng.next_ephemeral in
  eng.next_ephemeral <- eng.next_ephemeral + 1;
  let lip =
    if dst_ip = Netstack.loopback_ip || dst_ip = Netstack.ip eng.stack then dst_ip
    else Netstack.ip eng.stack
  in
  let conn = make_conn eng ~lip ~lport ~rip:dst_ip ~rport:dst_port ~state:Syn_sent in
  Hashtbl.replace eng.conns (key conn) conn;
  emit conn ~flags:Packet.syn Bytes.empty;
  let rec rexmit n () =
    if conn.state = Syn_sent && not conn.reset then begin
      if n >= handshake_max_tries then begin
        conn.timed_out <- true;
        ignore (Ostd.Wait_queue.wake_all conn.conn_wq)
      end
      else begin
        Sim.Stats.incr "degrade.retried.tcp_syn";
        emit conn ~flags:Packet.syn Bytes.empty;
        ignore (Sim.Events.schedule_after rto_cycles (rexmit (n + 1)))
      end
    end
  in
  ignore (Sim.Events.schedule_after rto_cycles (rexmit 1));
  Ostd.Wait_queue.sleep_until conn.conn_wq (fun () ->
      conn.state <> Syn_sent || conn.reset || conn.timed_out);
  if conn.reset || conn.timed_out then begin
    Hashtbl.remove eng.conns (key conn);
    Error (if conn.reset then Errno.econnrefused else Errno.etimedout)
  end
  else Ok conn

let send ?(pins = []) ?(nonblock = false) conn ~buf ~pos ~len =
  if conn.reset || conn.local_closed then begin
    drop_pins pins;
    Error Errno.epipe
  end
  else if nonblock && Fifo.length conn.txq >= sndbuf_cap then begin
    (* O_NONBLOCK with a full send buffer: EAGAIN before charging the
       small-write cost — the caller parks on POLLOUT instead. *)
    drop_pins pins;
    Error Errno.eagain
  end
  else begin
    (* The send-path cost of a small write (socket lock, segmentation
       bookkeeping); full segments pay per-segment costs at transmit. *)
    if len < mss then
      Netstack.charge conn.eng.stack (Sim.Cost.c ()).Sim.Profile.tcp_small_write;
    let written = ref 0 in
    let err = ref None in
    (* Zero-copy: the caller's pins ride on the chunk holding the final
       byte, so the packet consuming that byte inherits them and keeps
       the page-cache frames live until its TX resolves. If the write is
       cut short (reset mid-send), the pins never attach and we release
       them here — [send] owns them unconditionally. *)
    let attached = ref false in
    while
      !written < len && !err = None
      && not (nonblock && Fifo.length conn.txq >= sndbuf_cap)
    do
      Ostd.Wait_queue.sleep_until conn.snd_wq (fun () ->
          Fifo.length conn.txq < sndbuf_cap || conn.reset);
      if conn.reset then err := Some Errno.epipe
      else begin
        let space = sndbuf_cap - Fifo.length conn.txq in
        let n = min space (len - !written) in
        let last = !written + n = len in
        Fifo.push ?pins:(if last then Some pins else None) conn.txq buf (pos + !written) n;
        if last then attached := true;
        written := !written + n;
        try_transmit conn
      end
    done;
    if not !attached then drop_pins pins;
    match !err with Some e when !written = 0 -> Error e | _ -> Ok !written
  end

let recv ?(nonblock = false) conn ~buf ~pos ~len =
  if conn.reset then Error Errno.econnreset
  else if nonblock && Fifo.length conn.rcvbuf = 0 && not conn.peer_fin then Error Errno.eagain
  else begin
    (* A receiver that must sleep pays the full wakeup path; streaming
       receivers find data ready and skip it. *)
    if Fifo.length conn.rcvbuf = 0 && not (conn.peer_fin || conn.reset) then
      Netstack.charge conn.eng.stack (Sim.Cost.c ()).Sim.Profile.net_wake;
    Ostd.Wait_queue.sleep_until conn.rcv_wq (fun () ->
        Fifo.length conn.rcvbuf > 0 || conn.peer_fin || conn.reset);
    if conn.reset then Error Errno.econnreset
    else if Fifo.length conn.rcvbuf = 0 then Ok 0 (* peer closed *)
    else begin
      let was_starved = free_window conn < mss in
      let n = Fifo.pop_into conn.rcvbuf buf pos len in
      if was_starved && free_window conn >= mss then send_pure_ack conn;
      Ok n
    end
  end

let recv_available conn = Fifo.length conn.rcvbuf

let close conn =
  if not conn.local_closed then begin
    conn.local_closed <- true;
    maybe_send_fin conn;
    (* Forget the connection once both directions are done; a fuller
       implementation would hold TIME_WAIT. *)
    if conn.state = Closed && conn.peer_fin then Hashtbl.remove conn.eng.conns (key conn)
  end

(* SO_LINGER-0-style abortive close: fire an RST at the peer and tear
   the local state down immediately. The chaos suite uses this to
   inject resets mid-churn; the peer's readiness layer must surface
   them as EPOLLERR|EPOLLHUP. *)
let abort conn =
  if not conn.reset then begin
    emit conn ~flags:Packet.rst Bytes.empty;
    conn.reset <- true;
    conn.state <- Closed;
    Fifo.drain_pins conn.txq;
    Hashtbl.remove conn.eng.conns (key conn);
    ignore (Ostd.Wait_queue.wake_all conn.rcv_wq);
    ignore (Ostd.Wait_queue.wake_all conn.snd_wq);
    ignore (Ostd.Wait_queue.wake_all conn.conn_wq);
    Pollable.publish conn.pollable (Pollable.pollin lor Pollable.pollerr lor Pollable.pollhup)
  end

let pollable conn = conn.pollable

let listener_pollable l = l.l_pollable

let set_nodelay conn = conn.nodelay <- true

let peer_of conn = (conn.rip, conn.rport)

let local_port conn = conn.lport

let cwnd_bytes conn = if conn.eng.cc then conn.cwnd else max_int

let tx_soft_errors conn = conn.tx_soft_errors
