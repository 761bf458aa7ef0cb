(** Block layer: bios, driver registration, and a 4 KiB buffer cache.

    File systems read and write through the cache (memory speed on hits);
    dirty blocks reach the device on [sync]/[sync_blocks] (fsync) or via
    background writeback. All buffers are untyped frames, as the DMA path
    requires (Inv. 6). *)

val block_size : int
val sectors_per_block : int

type op = Read | Write | Write_fua | Flush

type bio

val make_bio : op -> sector:int -> ?frame:Ostd.Frame.t -> len:int -> unit -> bio
(** [frame] carries the data for Read/Write/Write_fua; Flush takes none.
    The frame is borrowed for the bio's lifetime. A [Write_fua] is
    write-through: the device persists the sectors before completing. *)

val bio_status : bio -> int option
(** [None] while in flight; [Some 0] on success; [Some errno] on error. *)

val bio_op : bio -> op
val bio_sector : bio -> int
val bio_frame : bio -> Ostd.Frame.t option
val bio_len : bio -> int

val bio_span : bio -> int
(** The request span owning this bio (0 = none), captured at creation
    and inherited by clones across merges, batch splits and retries. *)

val note_issued : bio -> unit
(** Driver hook: the bio was pushed to the device (first push wins). *)

val note_dev_done : bio -> int64 -> unit
(** Driver hook: the device's completion timestamp, read back from the
    descriptor. Feeds the span's blk.service / blk.irq split. *)

val complete_bio : bio -> status:int -> unit
(** Called by the driver when the device finishes. *)

module type DRIVER = sig
  val capacity_sectors : unit -> int

  val submit : bio -> unit
  (** Begin servicing; completion arrives via [complete_bio]. *)

  val submit_many : bio list -> unit
  (** Scatter-gather: begin servicing a merged run of bios (same op,
      adjacent sectors, already sorted) as one descriptor chain with a
      single doorbell; the device completes the chain with one
      interrupt. Each bio still completes individually via
      [complete_bio]. *)

  val cancel : bio -> unit
  (** The block layer timed this bio out. The driver must stop waiting
      on it and quarantine any DMA buffers still exposed to the device,
      so a late completion cannot land in reused memory. *)
end

val register_driver : (module DRIVER) -> unit
val have_driver : unit -> bool
val capacity_sectors : unit -> int

val submit_and_wait : bio -> (unit, int) result
(** Sleep the current task until the bio completes, retrying on error or
    timeout with exponential backoff (deadline 8 ms doubling to 64 ms,
    up to 5 attempts). The caller's bio is completed exactly once with
    the final outcome; [Error errno] (EIO for a device that went silent)
    is returned once every attempt is exhausted. *)

val submit_batch : bio list -> unit
(** The plug/unplug request queue: sector-sort the bios, merge adjacent
    same-op requests into descriptor chains (up to 32 per chain), and
    issue each chain with one submission charge, one doorbell, and one
    completion interrupt, under a single shared deadline. On a mid-batch
    error or timeout the chain is split back into per-bio
    [submit_and_wait] attempts, preserving the single-bio retry and EIO
    semantics. Every bio is complete when this returns — callers inspect
    [bio_status]. With [blk_batching] off in the profile, degenerates to
    per-bio submission. Counters: [blk.merge] (bios saved a doorbell),
    [blk.batch], [blk.batch_split]. *)

(** {2 Buffer cache} *)

val read_block : int -> Ostd.Frame.t
(** The cached frame for a block, reading it from the device on a miss.
    The returned frame is owned by the cache — do not drop it. *)

val write_to_block : int -> off:int -> buf:bytes -> pos:int -> len:int -> unit
(** Write through the cache and mark dirty. A partial write of a block
    not yet cached reads it first (read-modify-write); a full-block write
    skips the read. *)

val read_from_block : int -> off:int -> buf:bytes -> pos:int -> len:int -> unit

val zero_block : int -> unit
(** Mark the block cached and zeroed without touching the device (fresh
    allocation). *)

val mark_dirty : int -> unit

val is_dirty : int -> bool
(** Membership in the dirty index, the only record of which cached
    blocks are dirty. [sync] walks just this index, so its host cost
    follows the dirty blocks, not the cache size. *)

val dirty_blocks : unit -> int
(** The size of the dirty index. *)

val cached_blocks : unit -> int

val flush_batch : unit -> unit
(** One background-writeback round, run now: write back up to 512 dirty
    blocks taken from the writeback FIFO in dirtying order, parking the
    journal-pinned ones. The flusher runs it from a softirq work item
    once more than 768 blocks are dirty. *)

(** {2 Journal pinning}

    The write-ahead journal pins a block once it has logged it:
    writeback (background or sync) must not overwrite the block's home
    location until the journal record is durable and checkpointed.
    Pinned blocks the flusher meets are parked — removed from the
    writeback queue but kept dirty — and re-queued on [unpin]. *)

val pin : int -> unit
val unpin : int -> unit
val is_pinned : int -> bool

val write_block_fua : int -> (unit, int) result
(** Write one cached block with FUA (durable on return, bypassing the
    device's volatile cache) and mark it clean. Counts [blk.fua]. A
    block that is not cached is a no-op. *)

val flush_device : unit -> (unit, int) result
(** Issue a device flush barrier: everything the device acknowledged
    before this is durable when it completes. Counts [blk.flush]. *)

val write_through : int -> Bytes.t -> (unit, int) result
(** Write the given bytes to a block on the device without touching its
    cache entry (journal checkpoint of a frozen committed image while
    the cache holds newer bytes). Reaches the device's volatile cache
    only; follow with {!flush_device} for durability. *)

val prefetch_blocks : ?mark:bool -> int list -> unit
(** Readahead back end: batch-read the given blocks (misses only) into
    the cache as clean entries. Read failures are dropped silently —
    readahead is a hint; the demand read retries on its own. With [mark]
    (default), entries are tagged speculative: a later demand hit counts
    [blk.readahead.hit], and blocks issued here count
    [blk.readahead.issued]. [~mark:false] is the plug path — batching
    the demand range itself, counted under [blk.plug_read]. Demand reads
    that reach the device synchronously count [blk.readahead.miss]. *)

val drop_clean : unit -> int
(** Evict every clean cache entry (cold-cache benchmark phases); dirty
    blocks stay. Returns the number of entries dropped. *)

val sync : unit -> (unit, int) result
(** Write back every dirty block (journal-pinned blocks excepted) and
    issue a device flush. [Error errno] reports a flush failure or a
    sticky writeback error: background writeback cannot raise, so a
    block it had to drop after exhausting retries is recorded and
    surfaced at the next sync (errseq-style, consumed once reported
    on this legacy path — per-file observers use {!wb_check}). *)

val sync_blocks : int list -> (unit, int) result
(** Write back specific blocks (fsync of one file), then flush. Reports
    errors as [sync] does. *)

(** {2 Writeback error sequencing (errseq_t)} *)

val wb_errseq : unit -> int
(** Current writeback-error sequence; sample it when you start caring
    (e.g. at open(2)). *)

val wb_check : since:int -> (unit, int * int) result
(** Has a writeback error happened after [since]? [Error (seq, errno)]
    reports it along with the new sequence to remember — so every
    observer (each open file, plus the legacy sync(2) consumer) sees an
    error exactly once, independently of the others. *)

val verify_cache_against_device : unit -> int * int
(** Durability crosscheck: re-read every clean cached block from the
    device and byte-compare with the cache. Returns
    [(blocks_checked, mismatches)]; after a successful [sync] a non-zero
    mismatch count means data never reached stable storage. *)

val reset : unit -> unit
(** Forget the driver and drop the cache (new boot). *)
