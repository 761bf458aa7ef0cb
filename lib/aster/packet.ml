type proto = Tcp | Udp

type t = {
  src_ip : int;
  dst_ip : int;
  proto : proto;
  src_port : int;
  dst_port : int;
  flags : int;
  seq : int;
  ack : int;
  win : int;
  payload : bytes;
  (* kspan ownership: the request span this segment belongs to
     (0 = none), captured when the packet is built so it survives the
     plug queue, burst splits and driver retries. [span_t0] marks entry
     into the TX path (stamped by the netstack). *)
  mutable span : int;
  mutable span_t0 : int64;
  (* Zero-copy TX: page-cache frames this packet's payload references,
     cloned when the view was built and dropped exactly once when the
     packet resolves (TX reap, driver give-up, quarantine, or loopback
     delivery). Empty for copied payloads. *)
  mutable pins : Ostd.Frame.t list;
}

let syn = 1
let ack_flag = 2
let fin = 4
let rst = 8
let psh = 16

(* The byte layout lives in {!Machine.Pktfmt}: the device model needs it
   for TSO splitting and checksum-offload verdicts, and keeping one
   definition is what guarantees the device and the stack agree. *)
let header_size = Machine.Pktfmt.header_size

let cksum_off = Machine.Pktfmt.cksum_off

let mss = Machine.Pktfmt.mss

let gso_max_size = 64 * 1024

let cksum = Machine.Pktfmt.cksum

let release_pins p =
  match p.pins with
  | [] -> ()
  | pins ->
    p.pins <- [];
    List.iter
      (fun f ->
        Sim.Stats.incr "net.zc_unpin";
        Ostd.Frame.drop f)
      pins

let encode p =
  let len = Bytes.length p.payload in
  let b = Bytes.create (header_size + len) in
  Bytes.set_int32_le b 0 (Int32.of_int p.src_ip);
  Bytes.set_int32_le b 4 (Int32.of_int p.dst_ip);
  Bytes.set b 8 (match p.proto with Tcp -> '\006' | Udp -> '\017');
  Bytes.set b 9 (Char.chr (p.flags land 0xff));
  Bytes.set_uint16_le b 10 p.src_port;
  Bytes.set_uint16_le b 12 p.dst_port;
  Bytes.set_int32_le b 16 (Int32.of_int p.seq);
  Bytes.set_int32_le b 20 (Int32.of_int p.ack);
  Bytes.set_int32_le b 24 (Int32.of_int p.win);
  Bytes.set_int32_le b 28 (Int32.of_int len);
  Bytes.blit p.payload 0 b header_size len;
  Bytes.set_int32_le b cksum_off (Int32.of_int (cksum b));
  b

(* [verify:false] is the checksum-offload path: the device already
   verified the frame and wrote its verdict, so the software pass is
   skipped — exactly the trust the csum_rx_offload knob models. *)
let decode ?(verify = true) b =
  if Bytes.length b < header_size then None
  else begin
    let u32 off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff in
    let len = u32 28 in
    if Bytes.length b < header_size + len then None
    else if verify && u32 cksum_off <> cksum (Bytes.sub b 0 (header_size + len)) then begin
      (* Damaged in flight. Dropping it is the graceful path: TCP's
         retransmit timer resends the segment, UDP callers accepted
         lossy delivery when they picked UDP. *)
      Sim.Stats.incr "net.checksum_drop";
      Sim.Trace.emit Sim.Trace.Net "drop" (fun () ->
          Printf.sprintf "reason=checksum len=%d" (Bytes.length b));
      None
    end
    else
      let proto = match Bytes.get b 8 with '\006' -> Some Tcp | '\017' -> Some Udp | _ -> None in
      match proto with
      | None -> None
      | Some proto ->
        Some
          {
            src_ip = u32 0;
            dst_ip = u32 4;
            proto;
            flags = Char.code (Bytes.get b 9);
            src_port = Bytes.get_uint16_le b 10;
            dst_port = Bytes.get_uint16_le b 12;
            seq = u32 16;
            ack = u32 20;
            win = u32 24;
            payload = Bytes.sub b header_size len;
            span = 0;
            span_t0 = 0L;
            pins = [];
          }
  end

let make ~src_ip ~dst_ip ~proto ~src_port ~dst_port ?(flags = 0) ?(seq = 0) ?(ack = 0)
    ?(win = 0) payload =
  {
    src_ip; dst_ip; proto; src_port; dst_port; flags; seq; ack; win; payload;
    span = Sim.Span.current (); span_t0 = 0L; pins = [];
  }

let ip_of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    (int_of_string a lsl 24) lor (int_of_string b lsl 16) lor (int_of_string c lsl 8)
    lor int_of_string d
  | _ -> invalid_arg ("Packet.ip_of_string: " ^ s)

let string_of_ip ip =
  Printf.sprintf "%d.%d.%d.%d" ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
    ((ip lsr 8) land 0xff) (ip land 0xff)
