(** Network packets: a structured header plus payload, with a binary
    encoding for links that carry raw bytes (virtio-net DMA buffers). *)

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
  mutable span : int;
      (** kspan owner (0 = none): captured at [make], carried through
          the plug queue, burst splits and driver retries. *)
  mutable span_t0 : int64;  (** entry into the TX path (netstack stamp) *)
  mutable pins : Ostd.Frame.t list;
      (** Zero-copy TX: page-cache frames the payload references, dropped
          exactly once when the packet resolves (see {!release_pins}). *)
}

val syn : int
val ack_flag : int
val fin : int
val rst : int
val psh : int

val header_size : int
val mss : int
(** Maximum segment payload carried per packet. *)

val gso_max_size : int
(** Super-segment payload cap with GSO/TSO and GRO, bytes; also the
    loopback segment limit. *)

val encode : t -> bytes
(** Serialize, stamping a 32-bit checksum over header and payload. *)

val decode : ?verify:bool -> bytes -> t option
(** [None] for truncated datagrams, unknown protocols, or a checksum
    mismatch (counted as [net.checksum_drop]) — corrupted frames are
    dropped so retransmission, not garbled data, is what the caller
    sees. [~verify:false] skips the software checksum pass: the
    checksum-offload path, where the device already verified the frame
    and the driver checked its verdict. *)

val release_pins : t -> unit
(** Drop every pinned frame exactly once (idempotent: the list empties
    on first call). Counted under [net.zc_unpin]. *)

val make :
  src_ip:int -> dst_ip:int -> proto:proto -> src_port:int -> dst_port:int ->
  ?flags:int -> ?seq:int -> ?ack:int -> ?win:int -> bytes -> t

val ip_of_string : string -> int
val string_of_ip : int -> string
