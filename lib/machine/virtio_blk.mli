(** Virtio block device model (single queue, like the paper's VM config).

    The driver communicates through a 40-byte request descriptor placed in
    DMA-visible physical memory:

    {v
      off  0  u32  type      0 = read, 1 = write, 2 = flush, 3 = FUA write
      off  4  u32  len       bytes (multiple of 512)
      off  8  u64  sector
      off 16  u64  data paddr
      off 24  u32  status    written by the device: 0 ok, 1 io error
      off 32  u64  next      paddr of the next chained descriptor, 0 = end
    v}

    Writing a descriptor's physical address to the QUEUE_NOTIFY register
    enqueues that descriptor — or, when its [next] field links further
    descriptors, the whole chain: the device walks the chain (bounded,
    loop-safe) and services every request with a single completion
    interrupt, which is where batched submission earns its doorbell/IRQ
    economy. The device DMAs through the {!Iommu}; a translation fault
    aborts the request (and, if the status word itself is unreachable,
    drops it silently — exactly the hostile-device behaviour Inv. 6
    defends the rest of memory against). Completion raises the device's
    interrupt vector. *)

type t

type disk
(** The persistent disk image: the only device state that survives a
    power cut. Distinct from the volatile write cache and ring state —
    ordinary writes land in the cache and become durable only via a
    flush (type 2) or FUA write (type 3). Carry a [disk] across a board
    reset into a fresh {!create} to model remount-after-crash. *)

val create_disk : capacity_sectors:int -> disk

val clone_disk : disk -> disk
(** Deep copy, for running the same recovery twice deterministically. *)

val image_chunks : disk -> int
(** 4 KiB chunks the image has allocated. The image is stored in
    page-sized chunks of 8 sectors, allocated on first write; an
    unwritten chunk reads as zeroes and costs nothing. *)

val create :
  ?disk:disk -> capacity_sectors:int -> mmio_base:int -> dev_id:int -> vector:int -> unit -> t
(** Registers the MMIO window, backing store, and {!Bus} entry. When
    [disk] is given the device is created around that (possibly
    crash-survived) image; otherwise a fresh zeroed image is made. *)

val disk_image : t -> disk

val persist_count : t -> int
(** Sectors made durable so far — each increment is one enumerable
    crash boundary for the ["blk.power_cut"] trigger. *)

val is_dead : t -> bool
(** The power cut fired: the device no longer answers. *)

val flushes : t -> int
val fua_writes : t -> int

type cache_stats = {
  live_chunks : int;  (** chunks written through the cache since the last flush *)
  pooled_chunks : int;  (** released chunks kept for reuse *)
}

val cache_stats : t -> cache_stats
(** Footprint of the volatile write cache, in 4 KiB chunks. A flush or
    power cut returns every live chunk to the pool, and new chunks come
    from the pool first, so [live_chunks + pooled_chunks] is the peak
    number of chunks ever live at once. *)

val sector_size : int

(* Register offsets within the MMIO window. *)
val reg_magic : int
val reg_device_id : int
val reg_capacity : int
val reg_queue_notify : int

val capacity_sectors : t -> int

val write_backing : t -> sector:int -> bytes -> unit
(** Host-side backdoor used by tests and mkfs to seed disk contents.
    Writes go straight to the persistent image (no crash boundaries).
    A length that is not a whole number of sectors, or a range that does
    not lie on the device, raises [Invalid_argument] and changes
    nothing. *)

val read_backing : t -> sector:int -> len:int -> bytes
(** Read what the device would return (write cache, then image). Raises
    [Invalid_argument] like {!write_backing}. *)

val requests_completed : t -> int
val requests_failed : t -> int

val chains_processed : t -> int
(** Number of multi-descriptor chains serviced (length > 1). *)

val irqs_raised : t -> int
(** Completion interrupts actually raised (after coalescing). *)
