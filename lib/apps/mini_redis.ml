let port = 6379

let command_names =
  [
    "PING_INLINE"; "PING_MBULK"; "SET"; "GET"; "INCR"; "LPUSH"; "RPUSH"; "LPOP"; "RPOP";
    "SADD"; "HSET"; "SPOP"; "ZADD"; "ZPOPMIN"; "LRANGE_100"; "LRANGE_300"; "LRANGE_500";
    "LRANGE_600"; "MSET";
  ]

type value =
  | Str of string
  | List of string list * string list (* front, rev back: O(1) deque *)
  | Set of (string, unit) Hashtbl.t
  | Hash of (string, string) Hashtbl.t
  | Zset of (float * string) list (* kept sorted by score *)

(* Command execution cost in user cycles: hash lookup, allocation,
   serialization — roughly what redis-server burns per command. *)
let base_cmd_work = 1700

let per_element_work = 170

let exec store cmd args =
  Sim.Clock.charge base_cmd_work;
  let get k = Hashtbl.find_opt store k in
  let reply_int n = Printf.sprintf ":%d\n" n in
  let as_list k =
    match get k with Some (List (f, b)) -> (f, b) | _ -> ([], [])
  in
  match (cmd, args) with
  | "PING", _ -> "+PONG\n"
  | "ECHO", v :: _ -> Printf.sprintf "$%s\n" v
  | "DEL", keys ->
    let n = List.length (List.filter (fun k -> Hashtbl.mem store k) keys) in
    List.iter (Hashtbl.remove store) keys;
    reply_int n
  | "EXISTS", k :: _ -> reply_int (if Hashtbl.mem store k then 1 else 0)
  | "APPEND", k :: v :: _ ->
    let prev = match get k with Some (Str s) -> s | _ -> "" in
    Hashtbl.replace store k (Str (prev ^ v));
    reply_int (String.length prev + String.length v)
  | "STRLEN", k :: _ ->
    reply_int (match get k with Some (Str s) -> String.length s | _ -> 0)
  | "SETNX", k :: v :: _ ->
    if Hashtbl.mem store k then reply_int 0
    else begin
      Hashtbl.replace store k (Str v);
      reply_int 1
    end
  | "GETSET", k :: v :: _ ->
    let prev = match get k with Some (Str s) -> Printf.sprintf "$%s\n" s | _ -> "$-1\n" in
    Hashtbl.replace store k (Str v);
    prev
  | "LLEN", k :: _ ->
    let f, b = as_list k in
    reply_int (List.length f + List.length b)
  | "SCARD", k :: _ ->
    reply_int (match get k with Some (Set s) -> Hashtbl.length s | _ -> 0)
  | "SISMEMBER", k :: v :: _ ->
    reply_int (match get k with Some (Set s) when Hashtbl.mem s v -> 1 | _ -> 0)
  | "HGET", k :: field :: _ -> (
    match get k with
    | Some (Hash h) -> (
      match Hashtbl.find_opt h field with
      | Some v -> Printf.sprintf "$%s\n" v
      | None -> "$-1\n")
    | _ -> "$-1\n")
  | "HDEL", k :: field :: _ -> (
    match get k with
    | Some (Hash h) when Hashtbl.mem h field ->
      Hashtbl.remove h field;
      reply_int 1
    | _ -> reply_int 0)
  | "HLEN", k :: _ ->
    reply_int (match get k with Some (Hash h) -> Hashtbl.length h | _ -> 0)
  | "ZCARD", k :: _ ->
    reply_int (match get k with Some (Zset z) -> List.length z | _ -> 0)
  | "FLUSHALL", _ ->
    Hashtbl.reset store;
    "+OK\n"
  | "SET", k :: v :: _ ->
    Hashtbl.replace store k (Str v);
    "+OK\n"
  | "GET", k :: _ -> (
    match get k with
    | Some (Str v) -> Printf.sprintf "$%s\n" v
    | _ -> "$-1\n")
  | "INCR", k :: _ ->
    let v = match get k with Some (Str s) -> (try int_of_string s with _ -> 0) | _ -> 0 in
    Hashtbl.replace store k (Str (string_of_int (v + 1)));
    reply_int (v + 1)
  | "LPUSH", k :: v :: _ ->
    let f, b = as_list k in
    Hashtbl.replace store k (List (v :: f, b));
    reply_int (List.length f + List.length b + 1)
  | "RPUSH", k :: v :: _ ->
    let f, b = as_list k in
    Hashtbl.replace store k (List (f, v :: b));
    reply_int (List.length f + List.length b + 1)
  | "LPOP", k :: _ -> (
    match as_list k with
    | v :: f, b ->
      Hashtbl.replace store k (List (f, b));
      Printf.sprintf "$%s\n" v
    | [], b -> (
      match List.rev b with
      | v :: f ->
        Hashtbl.replace store k (List (f, []));
        Printf.sprintf "$%s\n" v
      | [] -> "$-1\n"))
  | "RPOP", k :: _ -> (
    match as_list k with
    | f, v :: b ->
      Hashtbl.replace store k (List (f, b));
      Printf.sprintf "$%s\n" v
    | f, [] -> (
      match List.rev f with
      | v :: b ->
        Hashtbl.replace store k (List ([], b));
        Printf.sprintf "$%s\n" v
      | [] -> "$-1\n"))
  | "SADD", k :: v :: _ ->
    let s =
      match get k with
      | Some (Set s) -> s
      | _ ->
        let s = Hashtbl.create 16 in
        Hashtbl.replace store k (Set s);
        s
    in
    let fresh = not (Hashtbl.mem s v) in
    Hashtbl.replace s v ();
    reply_int (if fresh then 1 else 0)
  | "SPOP", k :: _ -> (
    match get k with
    | Some (Set s) when Hashtbl.length s > 0 ->
      let v = Hashtbl.fold (fun k () _ -> Some k) s None in
      (match v with
      | Some v ->
        Hashtbl.remove s v;
        Printf.sprintf "$%s\n" v
      | None -> "$-1\n")
    | _ -> "$-1\n")
  | "HSET", k :: field :: v :: _ ->
    let h =
      match get k with
      | Some (Hash h) -> h
      | _ ->
        let h = Hashtbl.create 16 in
        Hashtbl.replace store k (Hash h);
        h
    in
    let fresh = not (Hashtbl.mem h field) in
    Hashtbl.replace h field v;
    reply_int (if fresh then 1 else 0)
  | "ZADD", k :: score :: v :: _ ->
    let z = match get k with Some (Zset z) -> z | _ -> [] in
    let sc = try float_of_string score with _ -> 0. in
    let z = List.merge compare [ (sc, v) ] (List.filter (fun (_, m) -> m <> v) z) in
    Sim.Clock.charge (per_element_work * List.length z / 4);
    Hashtbl.replace store k (Zset z);
    reply_int 1
  | "ZPOPMIN", k :: _ -> (
    match get k with
    | Some (Zset ((sc, v) :: rest)) ->
      Hashtbl.replace store k (Zset rest);
      Printf.sprintf "*2\n$%s\n$%g\n" v sc
    | _ -> "*0\n")
  | "LRANGE", k :: first :: last :: _ ->
    let f, b = as_list k in
    let all = f @ List.rev b in
    let first = int_of_string first and last = int_of_string last in
    let selected =
      List.filteri (fun i _ -> i >= first && i <= last) all
    in
    Sim.Clock.charge (per_element_work * List.length selected);
    Printf.sprintf "*%d\n%s" (List.length selected)
      (String.concat "" (List.map (fun v -> Printf.sprintf "$%s\n" v) selected))
  | "MSET", kvs ->
    let rec pairs = function
      | k :: v :: rest ->
        Hashtbl.replace store k (Str v);
        pairs rest
      | _ -> ()
    in
    pairs kvs;
    Sim.Clock.charge (per_element_work * (List.length kvs / 2));
    "+OK\n"
  | _ -> "-ERR unknown command\n"

(* Event-driven server: one task, one epoll instance, level-triggered
   conn fds. The listener is non-blocking and drained to EAGAIN per
   readiness event (accept4); conn fds stay blocking — LT guarantees
   data is present when EPOLLIN is reported, so a single read per event
   never blocks, and LT re-reports until the socket is drained. *)
let serve_epoll store c =
  let sfd = Libc.socket c ~domain:2 ~typ:1 in
  ignore (Libc.bind_inet c ~fd:sfd ~port);
  ignore (Libc.listen c ~fd:sfd ~backlog:64);
  ignore (Libc.set_nonblock c ~fd:sfd);
  let ep = Libc.epoll_create1 c in
  ignore
    (Libc.epoll_ctl c ~epfd:ep ~op:Libc.epoll_ctl_add ~fd:sfd ~events:Libc.epollin
       ~data:(Int64.of_int sfd));
  let pending : (int, Buffer.t) Hashtbl.t = Hashtbl.create 64 in
  (* close(2) drops the epoll registration (EPOLLFREE) — no DEL owed. *)
  let drop fd =
    Hashtbl.remove pending fd;
    ignore (Libc.close c fd)
  in
  let accept_burst () =
    let continue = ref true in
    while !continue do
      let conn = Libc.accept4 c ~fd:sfd ~flags:0 in
      if conn < 0 then continue := false
      else begin
        ignore (Libc.set_nodelay c ~fd:conn);
        Hashtbl.replace pending conn (Buffer.create 256);
        ignore
          (Libc.epoll_ctl c ~epfd:ep ~op:Libc.epoll_ctl_add ~fd:conn ~events:Libc.epollin
             ~data:(Int64.of_int conn))
      end
    done
  in
  let serve_conn fd events =
    match Hashtbl.find_opt pending fd with
    | None -> ()
    | Some buf ->
      let eof =
        if events land Libc.epollin <> 0 then begin
          let chunk = Libc.read_str c ~fd ~len:4096 in
          Buffer.add_string buf chunk;
          chunk = ""
        end
        else events land (Libc.epollhup lor Libc.epollerr) <> 0
      in
      (* Drain every complete line already buffered and answer the batch
         with one write: a coalesced burst of pipelined commands (GRO
         hands them to the socket in one chunk) costs one reply segment
         instead of one write syscall per command. *)
      let replies = Buffer.create 64 in
      let rec drain () =
        match String.index_opt (Buffer.contents buf) '\n' with
        | None -> ()
        | Some i ->
          let all = Buffer.contents buf in
          let line = String.sub all 0 i in
          Buffer.clear buf;
          Buffer.add_string buf (String.sub all (i + 1) (String.length all - i - 1));
          (match String.split_on_char ' ' (String.trim line) with
          | [] | [ "" ] -> ()
          | cmd :: args ->
            let cmd = String.uppercase_ascii cmd in
            (* kspan request boundary: one span per client command, parse
               to serialized reply. Host-level annotation — no syscall,
               no virtual cycles. *)
            Sim.Span.annotate_begin ~cls:"redis" ~name:cmd;
            Buffer.add_string replies (exec store cmd args);
            Sim.Span.annotate_end ());
          drain ()
      in
      drain ();
      let write_failed =
        Buffer.length replies > 0 && Libc.write_str c ~fd (Buffer.contents replies) < 0
      in
      if eof || write_failed then drop fd
  in
  let continue = ref true in
  while !continue do
    match Libc.epoll_wait c ~epfd:ep ~maxevents:64 ~timeout_ms:(-1) with
    | Error _ -> continue := false
    | Ok (_, evs) ->
      List.iter
        (fun (data, events) ->
          let fd = Int64.to_int data in
          if fd = sfd then accept_burst () else serve_conn fd events)
        evs
  done;
  0

let spawn () =
  Runner.spawn ~name:"mini-redis" (fun c ->
      let store : (string, value) Hashtbl.t = Hashtbl.create 4096 in
      serve_epoll store c)
