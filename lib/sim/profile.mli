(** Kernel feature flags and cycle-cost model.

    The paper compares Asterinas against Linux 5.15 and attributes every
    performance delta to a concrete mechanism (smoltcp has no congestion
    control, Asterinas lacks RCU-walk, its sendfile performs an extra
    copy, OSTD safety checks cost a few cycles, DMA pooling preserves
    IOTLB entries). A profile bundles those mechanism switches with the
    per-operation cycle constants of the corresponding kernel. The
    simulated kernel consults the installed profile at every charge
    point, so both kernels run the same code base with different
    mechanisms enabled — the comparison shape emerges from the
    mechanisms, and absolute numbers are calibrated against the paper's
    Linux column. *)

type safety_costs = {
  boundary_check : int;  (** untyped-memory range check (Table 8 rows 1-2) *)
  iomem_check : int;     (** IoMem range check (Table 8 rows 3-4) *)
  guard_page : int;      (** guard-page setup at stack creation *)
  running_flag : int;    (** Inv. 8 is_running check at context switch *)
  ownership_check : int; (** Frame::from_unused metadata check (Inv. 1) *)
  slab_fit_check : int;  (** HeapSlot::into_box size/align check (Inv. 10) *)
}

type costs = {
  syscall : int;             (** user->kernel->user round trip *)
  user_copy_bpc : int;       (** copy_{to,from}_user bytes per cycle *)
  memcpy_bpc : int;          (** in-kernel memcpy bytes per cycle *)
  context_switch : int;
  fd_lookup : int;
  path_component : int;      (** per-component lookup, lock-walk *)
  path_component_fast : int; (** per-component lookup, RCU-walk *)
  open_misc : int;           (** fd + file object setup in open(2) *)
  fault_entry : int;         (** page-fault trap entry + return *)
  map_page : int;            (** PTE install *)
  mmap_per_page : int;       (** VMA setup cost per page in mmap(2) *)
  unmap_page : int;
  fork_base : int;
  fork_per_page : int;       (** page-table copy per mapped page *)
  exec_base : int;
  exit_base : int;
  pipe_op : int;             (** per pipe read/write beyond syscall + copy *)
  unix_op : int;             (** per unix-socket op beyond syscall + copy *)
  wakeup : int;
  tcp_tx_segment : int;      (** per-segment transmit processing *)
  tcp_rx_segment : int;      (** per-segment receive base (plus a per-byte part) *)
  tcp_rx_small : int;        (** sub-MSS receive base (header-prediction fast path) *)
  tcp_rx_small_bpc : int;    (** sub-MSS receive bytes/cycle divisor *)
  tcp_rx_bpc : int;          (** full-segment receive bytes/cycle divisor *)
  tcp_csum_cycles : int;     (** software-checksum share of a segment's TX cost;
                                 carved out when [csum_tx_offload] is on *)
  tcp_small_write : int;     (** fixed cost of a sub-MSS send(2) *)
  tcp_conn_setup : int;      (** connection object setup/teardown (timers, hashes) *)
  udp_packet : int;
  loopback_delivery : int;   (** softirq hand-off on the loopback path *)
  net_wake : int;            (** blocking-receive wakeup path (schedule, restore) *)
  blk_issue : int;           (** build + submit one virtio-blk request *)
  blk_us_per_op : float;     (** device latency per request, microseconds *)
  blk_us_per_desc : float;   (** device latency per extra chained descriptor *)
  blk_dev_bpc : float;       (** device streaming bandwidth, bytes/cycle *)
  net_us_per_pkt : float;    (** virtio-net wire + host latency per packet *)
  net_us_per_kick : float;   (** virtio-net TX queue processing per doorbell/burst *)
  net_us_per_desc : float;   (** virtio-net TX processing per extra chained descriptor *)
  net_dev_bpc : float;       (** virtio-net wire bandwidth, bytes/cycle *)
  mmio_access : int;       (** one MMIO register access (VM-exit class cost) *)
  doorbell : int;          (** ioeventfd-style virtio kick *)
  irq_entry : int;
  softirq : int;
  dma_map : int;             (** IOMMU domain update per map *)
  dma_unmap : int;           (** unmap incl. IOTLB invalidation *)
  iotlb_hit : int;
  iotlb_miss : int;          (** IOMMU page walk *)
  alloc_frame : int;
  kmalloc : int;
  stat_fill : int;           (** fill struct stat from an inode *)
  fs_new_page : int;         (** page-cache insertion of a freshly allocated page *)
  page_drop : int;           (** page-cache removal of one page (truncate) *)
  zero_fill_bpc : int;       (** memset bytes/cycle for hole reads / fresh pages *)
  sched_pick : int;
  timer_program : int;
  safety : safety_costs;
}

type t = {
  name : string;
  safety_checks : bool;          (** OSTD safety checks enabled *)
  iommu : bool;                  (** DMA + interrupt remapping active *)
  dma_pooling : bool;            (** persistent DMA mappings (pooled) *)
  blk_pooling_complete : bool;   (** paper: blk driver pooling is partial *)
  blk_batching : bool;           (** merge adjacent bios into descriptor chains:
                                     one doorbell + one completion IRQ per batch *)
  blk_readahead : bool;          (** sequential-stream readahead into the buffer cache *)
  ext2_journal : bool;           (** JBD2-style write-ahead metadata journal in ext2 *)
  net_tx_batching : bool;        (** plug outgoing TCP/UDP segments into descriptor-chain
                                     bursts: one doorbell per burst instead of per packet *)
  net_irq_coalesce : bool;       (** one TX-complete IRQ per chain and NAPI-style
                                     RX: one IRQ per delivered backlog drain *)
  tcp_congestion_control : bool; (** Reno; smoltcp-style stack lacks it *)
  tcp_gso : bool;                (** GSO/TSO: TCP hands the driver super-segments (up to
                                     [Aster.Packet.gso_max_size]) as single descriptors;
                                     the *device* splits them into MSS wire frames at
                                     ring time *)
  net_gro : bool;                (** RX coalescing: the driver merges in-order same-flow
                                     TCP segments into one super-segment per NAPI burst *)
  csum_tx_offload : bool;        (** device computes TX checksums; the stack skips its
                                     software-checksum share of the segment cost *)
  csum_rx_offload : bool;        (** device verifies RX checksums and marks the verdict;
                                     the stack trusts the mark *)
  rcu_walk : bool;               (** fast-path name lookup *)
  sendfile_zero_copy : bool;     (** false => extra bounce-buffer copy *)
  unix_double_copy : bool;       (** skb-based unix sockets copy twice *)
  pipe_buffer : int;             (** pipe ring capacity, bytes *)
  unix_buffer : int;             (** unix stream socket buffer, bytes *)
  costs : costs;
}

val linux : t
(** Linux 5.15 baseline, mitigations off, as configured in §6.1. *)

val asterinas : t
(** Asterinas with IOMMU enabled (the paper's default). *)

val asterinas_no_iommu : t

val with_safety_checks : bool -> t -> t
val with_dma_pooling : bool -> t -> t
val with_blk_batching : bool -> t -> t
val with_blk_readahead : bool -> t -> t
val with_ext2_journal : bool -> t -> t
val with_net_tx_batching : bool -> t -> t
val with_net_irq_coalesce : bool -> t -> t
val with_tcp_gso : bool -> t -> t
val with_net_gro : bool -> t -> t

val with_csum_offload : bool -> t -> t
(** Sets both [csum_tx_offload] and [csum_rx_offload]. *)

val with_sendfile_zero_copy : bool -> t -> t

val with_all_offloads : bool -> t -> t
(** Every offload modelled by the NIC (GSO/TSO, GRO, both checksum
    directions, zero-copy sendfile) as one switch; [false] is the honest
    software-segmentation baseline. *)

val set : t -> unit
(** Install the profile consulted by the simulated kernel. *)

val get : unit -> t

val checks_on : unit -> bool
(** [true] when the installed profile runs OSTD safety checks. *)
