(* kv-persist: a seeded command mix to mini_redis (one epoll loop) over
   16 persistent simulated TCP connections, under an open loop; each
   request is written when it is due, pipelined behind any request on
   its connection that is still waiting for a reply.

   Why: small-message request/response with no connection set-up and
   no block I/O: syscall entry, epoll_wait, small-packet TCP, NAPI/GRO
   and user-space data structures. Writes run beside reads, and
   LRANGE_100 returns large replies. Keys are partitioned by
   connection, so the order of ops on each key is the connection's
   order and every reply can be checked against a host-side model. *)

open Common

type op = { req : string; expect : string }

type inputs = {
  preload : op array array; (* per connection *)
  slots : (int array * op array * float array) array; (* per step slot: conn, op, gap *)
}

(* Per-connection model of the server state, advanced in op order. *)
type model = { strs : string array; ctrs : int array; lists : string list array }

let bulk v = "$" ^ v ^ "\n"

let gen ~seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let conns = pi "conns" and nstr = pi "strings" and nctr = pi "counters" in
  let nlist = pi "lists" and nelem = pi "list_len" in
  let value () = random_string rng (8 + Sim.Rng.int rng 25) in
  let key c kind j = Printf.sprintf "c%d:%s%d" c kind j in
  let models =
    Array.init conns (fun _ ->
        {
          strs = Array.init nstr (fun _ -> value ());
          ctrs = Array.init nctr (fun _ -> Sim.Rng.int rng 1000);
          lists = Array.init nlist (fun _ -> List.init nelem (fun _ -> value ()));
        })
  in
  let preload =
    Array.mapi
      (fun c m ->
        let sets kind vs =
          List.mapi (fun j v -> { req = Printf.sprintf "SET %s %s" (key c kind j) v; expect = "+OK\n" }) vs
        in
        let pushes j l =
          List.mapi
            (fun i v ->
              { req = Printf.sprintf "RPUSH %s %s" (key c "l" j) v; expect = Printf.sprintf ":%d\n" (i + 1) })
            l
        in
        Array.of_list
          (sets "s" (Array.to_list m.strs)
          @ sets "n" (List.map string_of_int (Array.to_list m.ctrs))
          @ List.concat (List.mapi pushes (Array.to_list m.lists))))
      models
  in
  (* Exactly 50% GET, 25% SET, 10% INCR, 5% LPUSH and 10% LRANGE_100
     per step, in seeded order: the mix does not drift between seeds. *)
  let mix n =
    let deck =
      Array.init n (fun i ->
          let pcent = i * 100 / n in
          List.length (List.filter (fun b -> pcent >= b) [ 50; 75; 85; 90 ]))
    in
    Sim.Rng.shuffle rng deck;
    deck
  in
  let next_op c kind =
    let m = models.(c) in
    match kind with
    | 0 ->
      let j = Sim.Rng.int rng nstr in
      { req = "GET " ^ key c "s" j; expect = bulk m.strs.(j) }
    | 1 ->
      let j = Sim.Rng.int rng nstr and v = value () in
      m.strs.(j) <- v;
      { req = Printf.sprintf "SET %s %s" (key c "s" j) v; expect = "+OK\n" }
    | 2 ->
      let j = Sim.Rng.int rng nctr in
      m.ctrs.(j) <- m.ctrs.(j) + 1;
      { req = "INCR " ^ key c "n" j; expect = Printf.sprintf ":%d\n" m.ctrs.(j) }
    | 3 ->
      let j = Sim.Rng.int rng nlist and v = value () in
      m.lists.(j) <- v :: m.lists.(j);
      { req = Printf.sprintf "LPUSH %s %s" (key c "l" j) v;
        expect = Printf.sprintf ":%d\n" (List.length m.lists.(j)) }
    | _ ->
      let j = Sim.Rng.int rng nlist in
      let first = List.filteri (fun i _ -> i < 100) m.lists.(j) in
      { req = Printf.sprintf "LRANGE %s 0 99" (key c "l" j);
        expect =
          Printf.sprintf "*%d\n%s" (List.length first) (String.concat "" (List.map bulk first)) }
  in
  let slot n =
    let conn = Array.init n (fun _ -> Sim.Rng.int rng conns) in
    let ops = Array.map2 next_op conn (mix n) in
    (conn, ops, Array.init n (fun _ -> exp_gap rng))
  in
  { preload; slots = Array.map slot (Openloop.slot_sizes ()) }

(* --- Host-side client connections ---

   A request is handed to the host TCP stack from the arrival event
   itself (a non-blocking send), so it leaves when it is due and costs
   the simulated CPU nothing. Only when the send buffer is full, or the
   connection is not up yet, does a sender task take over with a
   blocking send. A receiver task per connection matches replies to
   requests in order. *)

type conn = {
  mutable tcp : Aster.Tcp.conn option; (* once connected *)
  pending : Buffer.t; (* request bytes due but not yet accepted by TCP *)
  inflight : (string * (bool -> int -> unit)) Queue.t; (* expected reply, completion *)
  mutable parked : Ostd.Task.t option; (* the sender, while it has nothing to do *)
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable rpos : int;
}

let fail_all c =
  Buffer.clear c.pending;
  Queue.iter (fun (_, k) -> k false 0) c.inflight;
  Queue.clear c.inflight

(* End of the reply starting at [c.rpos]: a single line, or "*n" and n
   more lines. [None] while incomplete. *)
let reply_end c =
  let line_end from =
    match Bytes.index_from_opt c.rbuf from '\n' with
    | Some i when i < c.rlen -> Some (i + 1)
    | _ -> None
  in
  match line_end c.rpos with
  | None -> None
  | Some e when Bytes.get c.rbuf c.rpos <> '*' -> Some e
  | Some e ->
    let count = Bytes.sub_string c.rbuf (c.rpos + 1) (e - c.rpos - 2) in
    let rec more e k =
      if k = 0 then Some e else match line_end e with None -> None | Some e' -> more e' (k - 1)
    in
    more e (Option.value ~default:0 (int_of_string_opt count))

let receiver c tcp =
  let rec loop () =
    if c.rpos = c.rlen then begin
      c.rpos <- 0;
      c.rlen <- 0
    end;
    if Bytes.length c.rbuf - c.rlen < 16384 then begin
      let live = c.rlen - c.rpos in
      let nb = Bytes.create (max (Bytes.length c.rbuf) (2 * (live + 16384))) in
      Bytes.blit c.rbuf c.rpos nb 0 live;
      c.rbuf <- nb;
      c.rpos <- 0;
      c.rlen <- live
    end;
    match Aster.Tcp.recv tcp ~buf:c.rbuf ~pos:c.rlen ~len:(Bytes.length c.rbuf - c.rlen) with
    | Ok 0 | Error _ ->
      if not (Queue.is_empty c.inflight) then mismatch "connection closed with replies owed";
      fail_all c
    | Ok n ->
      c.rlen <- c.rlen + n;
      let rec parse () =
        if (not (Queue.is_empty c.inflight)) && c.rpos < c.rlen then
          match reply_end c with
          | None -> ()
          | Some e ->
            let got = Bytes.sub_string c.rbuf c.rpos (e - c.rpos) in
            c.rpos <- e;
            let expect, k = Queue.pop c.inflight in
            if got = expect then k true (String.length got)
            else begin
              mismatch (Printf.sprintf "reply %S, expected %S" got expect);
              k false 0
            end;
            parse ()
      in
      parse ();
      loop ()
  in
  loop ()

(* Hand TCP as much of [pending] as it takes without blocking. *)
let flush c tcp =
  let b = Buffer.to_bytes c.pending in
  Buffer.clear c.pending;
  match Aster.Tcp.send ~nonblock:true tcp ~buf:b ~pos:0 ~len:(Bytes.length b) with
  | Ok n -> Buffer.add_subbytes c.pending b n (Bytes.length b - n)
  | Error e when e = Aster.Errno.eagain -> Buffer.add_bytes c.pending b
  | Error _ ->
    mismatch "send failed";
    fail_all c

let sender host c =
  let htcp = host.Aster.Kernel.htcp in
  let rec connect tries =
    match Aster.Tcp.connect htcp ~dst_ip:Aster.Kernel.guest_ip ~dst_port:Apps.Mini_redis.port with
    | Ok tcp -> Some tcp
    | Error _ when tries > 0 ->
      Ostd.Task.sleep_us 300.;
      connect (tries - 1)
    | Error _ -> None
  in
  match connect 100 with
  | None ->
    mismatch "connect failed";
    fail_all c
  | Some tcp ->
    Aster.Tcp.set_nodelay tcp;
    c.tcp <- Some tcp;
    ignore (Ostd.Task.spawn ~name:"kv-recv" (fun () -> receiver c tcp));
    let rec loop () =
      if Buffer.length c.pending = 0 then begin
        c.parked <- Some (Ostd.Task.current ());
        Ostd.Task.block ()
      end
      else begin
        let b = Buffer.to_bytes c.pending in
        Buffer.clear c.pending;
        let rec send pos =
          if pos < Bytes.length b then
            match Aster.Tcp.send tcp ~buf:b ~pos ~len:(Bytes.length b - pos) with
            | Ok n when n > 0 -> send (pos + n)
            | _ ->
              mismatch "send failed";
              fail_all c
        in
        send 0
      end;
      loop ()
    in
    loop ()

let submit c op k =
  Queue.push (op.expect, k) c.inflight;
  Buffer.add_string c.pending op.req;
  Buffer.add_char c.pending '\n';
  match (c.parked, c.tcp) with
  | Some t, Some tcp ->
    flush c tcp;
    if Buffer.length c.pending > 0 then begin
      c.parked <- None;
      Ostd.Task.wake t
    end
  | _ -> ()

let rep ~seed =
  let t0 = host_s () in
  let inp = gen ~seed in
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  Apps.Mini_redis.spawn ();
  let conns =
    Array.init (pi "conns") (fun i ->
        let c =
          {
            tcp = None;
            pending = Buffer.create 256;
            inflight = Queue.create ();
            parked = None;
            rbuf = Bytes.create 65536;
            rlen = 0;
            rpos = 0;
          }
        in
        ignore (Ostd.Task.spawn ~name:(Printf.sprintf "kv-send-%d" i) (fun () -> sender host c));
        c)
  in
  (* Preload every connection's keys, pipelined and verified: set-up. *)
  let pending = ref 0 in
  Array.iteri
    (fun i ops ->
      Array.iter
        (fun op ->
          incr pending;
          submit conns.(i) op (fun ok _ ->
              if not ok then mismatch "preload op failed";
              decr pending))
        ops)
    inp.preload;
  Aster.Kernel.run_until (fun () -> !pending = 0);
  Openloop.settle ~us:(pf "settle_us");
  let setup_s = host_s () -. t0 in
  let h0 = Hostm.snap () in
  let run_slot j rate =
    let conn, ops, gaps = inp.slots.(j) in
    let st = Openloop.make ~rate ~n:(Array.length ops) in
    Openloop.run st ~gaps ~submit:(fun i ->
        submit conns.(conn.(i)) ops.(i) (fun ok bytes -> Openloop.complete st i ~ok ~bytes));
    Openloop.settle ~us:(pf "settle_us");
    Hostm.tick ();
    st
  in
  let ctx =
    {
      Layers.server = "mini-redis/";
      hstack = Some host.Aster.Kernel.hstack;
      endpoint = Some k.Aster.Kernel.devices.Machine.Board.host_endpoint;
    }
  in
  Openloop.measure ~setup_s ~h0 ~ctx ~run_slot
