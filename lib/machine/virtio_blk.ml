let sector_size = 512

let reg_magic = 0x00
let reg_device_id = 0x04
let reg_capacity = 0x08
let reg_queue_notify = 0x10

(* Bytes of one request descriptor, including the chain link at off 32
   and the device-written completion timestamp at off 40. A notify may
   name the head of a chain: the device walks [next] pointers (bounded,
   loop-safe) and services the whole chain with one completion
   interrupt — the per-batch doorbell/IRQ economy the batched block
   pipeline banks on. *)
let desc_size = 48

let max_chain = 128

(* Storage is page-chunked, like {!Phys} frames: [chunk_sectors]
   sectors per 4 KiB chunk, indexed by [sector / chunk_sectors]. A chunk
   is allocated on first write; an absent one reads as zeroes without
   allocating. The 8-bit per-chunk cached mask below relies on
   [chunk_sectors = 8]. *)
let chunk_size = Phys.page_size

let chunk_sectors = chunk_size / sector_size

let () = assert (chunk_sectors = 8)

let chunk_of s = s / chunk_sectors

let offset_of s = (s mod chunk_sectors) * sector_size

(* The shared "absent chunk" sentinel (compared with [==]) and the page
   that absent chunks read as. Neither is ever written. *)
let absent = Bytes.create 0

let zeroes = Bytes.make chunk_size '\000'

let nchunks ~capacity_sectors = (capacity_sectors + chunk_sectors - 1) / chunk_sectors

(* The persistent disk image, distinct from everything volatile on the
   device (write cache, ring state). It is the only thing that survives
   a power cut, and can be carried across [Board.reset] into a fresh
   boot to model remount-after-crash. [persists] counts sectors made
   durable — every increment is an enumerable crash boundary. *)
type disk = {
  dcap : int;
  chunks : Bytes.t array; (* [absent] until first written *)
  mutable persists : int;
}

let create_disk ~capacity_sectors =
  {
    dcap = capacity_sectors;
    chunks = Array.make (nchunks ~capacity_sectors) absent;
    persists = 0;
  }

let clone_disk d =
  {
    dcap = d.dcap;
    chunks = Array.map (fun b -> if b == absent then absent else Bytes.copy b) d.chunks;
    persists = d.persists;
  }

let image_chunks d = Array.fold_left (fun n b -> if b == absent then n else n + 1) 0 d.chunks

(* What an image chunk reads as, without allocating. *)
let image_src d c =
  let b = d.chunks.(c) in
  if b == absent then zeroes else b

(* The image chunk for writing, allocated on first write. *)
let image_dst d c =
  let b = d.chunks.(c) in
  if b != absent then b
  else begin
    let b = Bytes.make chunk_size '\000' in
    d.chunks.(c) <- b;
    b
  end

(* The volatile write cache has the same shape as the image. Bit j of
   [cmask.[c]] says sector [c * 8 + j] is cached in [cache.(c)]. A
   chunk is live from its first cached write until the next flush or
   power cut, which hands it to [pool]; new chunks come from the pool
   first, so the device holds at most as many chunks as were ever live
   at once. (4 KiB chunks are allocated straight on the major heap:
   keeping them alive forever, or freeing them to the GC, both cost
   far more than the pool.) Every live chunk is listed exactly once in
   [dirty.(0 .. ndirty-1)], which is what [flush_cache] sorts. *)
type t = {
  dev_id : int;
  vector : int;
  capacity : int;
  disk : disk;
  cache : Bytes.t array; (* [absent] unless live *)
  cmask : Bytes.t; (* per chunk: bitmask of cached sectors *)
  dirty : int array; (* live chunk indices, unsorted *)
  mutable ndirty : int;
  pool : Bytes.t Stack.t; (* released chunks, reused first *)
  hdr : Bytes.t; (* descriptor header scratch *)
  fua_buf : Bytes.t; (* one FUA sector, DMA'd in before it persists *)
  queue : int Queue.t; (* pending descriptor (chain head) paddrs *)
  mutable busy : bool;
  mutable dead : bool; (* power has been cut; device is gone *)
  mutable completed : int;
  mutable failed : int;
  mutable chains : int;
  mutable flushes : int;
  mutable fua_writes : int;
  mutable irqs_raised : int;
  mutable irq_pending : bool;
  mutable irq_missed : bool;
}

let capacity_sectors t = t.capacity

let disk_image t = t.disk

let persist_count t = t.disk.persists

let is_dead t = t.dead

let flushes t = t.flushes

let fua_writes t = t.fua_writes

type cache_stats = { live_chunks : int; pooled_chunks : int }

let cache_stats t = { live_chunks = t.ndirty; pooled_chunks = Stack.length t.pool }

let mask t c = Char.code (Bytes.get t.cmask c)

let set_mask t c m = Bytes.set t.cmask c (Char.unsafe_chr m)

let bit s = 1 lsl (s mod chunk_sectors)

(* Drop [s] from the cache. Its chunk stays live (and listed) until the
   next flush or power cut releases it. *)
let uncache t s =
  let c = chunk_of s in
  set_mask t c (mask t c land lnot (bit s))

(* The live cache chunk [c], taken from the pool (or created) and
   listed as dirty on first use. *)
let cache_chunk t c =
  let b = t.cache.(c) in
  if b != absent then b
  else begin
    let b = if Stack.is_empty t.pool then Bytes.create chunk_size else Stack.pop t.pool in
    t.cache.(c) <- b;
    t.dirty.(t.ndirty) <- c;
    t.ndirty <- t.ndirty + 1;
    b
  end

let release t c =
  let b = t.cache.(c) in
  if b != absent then begin
    set_mask t c 0;
    t.cache.(c) <- absent;
    Stack.push b t.pool
  end

(* What a read of [s] observes, at [offset_of s]: the write cache
   shadows the disk image — the device's RAM is coherent even before a
   flush makes it durable. *)
let read_src t s =
  let c = chunk_of s in
  if mask t c land bit s <> 0 then t.cache.(c) else image_src t.disk c

(* Power cut: everything volatile is gone. The in-flight ring is
   dropped (no status writes, no interrupts — outstanding bios hit the
   kernel's deadline and surface as EIO), the write cache evaporates,
   and the device stops responding until the next boot re-creates it
   around the same disk image. *)
let power_cut t =
  t.dead <- true;
  for k = 0 to t.ndirty - 1 do
    release t t.dirty.(k)
  done;
  t.ndirty <- 0;
  Queue.clear t.queue;
  Sim.Stats.incr "virtio_blk.power_cut";
  Logs.debug (fun m ->
      m "virtio-blk: power cut after %d persisted sectors" t.disk.persists)

(* Persist sector [s], whose new contents sit in [src] at [src_off], to
   the disk image. Each call is a crash boundary: the [blk.power_cut]
   trigger fires *before* the copy, so crash point k means exactly k
   sectors hit stable storage. Returns [false] when the power cut
   fired. *)
let persist_sector t s src src_off =
  if Sim.Fault.countdown "blk.power_cut" then begin
    power_cut t;
    false
  end
  else begin
    Bytes.blit src src_off (image_dst t.disk (chunk_of s)) (offset_of s) sector_size;
    uncache t s;
    t.disk.persists <- t.disk.persists + 1;
    true
  end

(* Drain the write cache to the disk image, lowest sector first. The
   deterministic order is deliberate: it enumerates crash points
   stably for a given workload, and sorting (rather than insertion
   order) models the reordering freedom a real drive has between
   barriers. Sorting the live chunks and walking each one's mask in bit
   order gives ascending sector order in O(d log d) for d live chunks;
   each drained chunk goes back to the pool. *)
let flush_cache t =
  t.flushes <- t.flushes + 1;
  let sorted = Array.sub t.dirty 0 t.ndirty in
  Array.sort Int.compare sorted;
  let ok = ref true and k = ref 0 in
  while !ok && !k < Array.length sorted do
    let c = sorted.(!k) in
    let b = t.cache.(c) in
    let m = mask t c in
    let j = ref 0 in
    while !ok && !j < chunk_sectors do
      if m land (1 lsl !j) <> 0 then
        ok := persist_sector t ((c * chunk_sectors) + !j) b (!j * sector_size);
      incr j
    done;
    release t c;
    incr k
  done;
  t.ndirty <- 0;
  !ok

(* [nsect] sectors from [sector] lie on the device. Written so that no
   sum can overflow: a descriptor's sector field is guest-controlled. *)
let in_range t ~sector ~nsect = sector >= 0 && nsect >= 0 && nsect <= t.capacity - sector

(* Out-of-band host access used by tests and mkfs-style tooling:
   writes go straight to the disk image (no crash boundaries counted),
   reads observe cache-then-disk like the device itself would. A range
   off the device raises before anything is touched. *)
let check_backing t fn ~sector ~len =
  if len mod sector_size <> 0 || not (in_range t ~sector ~nsect:(len / sector_size)) then
    invalid_arg (Printf.sprintf "Virtio_blk.%s: sector %d len %d off the device" fn sector len)

let write_backing t ~sector data =
  let len = Bytes.length data in
  check_backing t "write_backing" ~sector ~len;
  for i = 0 to (len / sector_size) - 1 do
    let s = sector + i in
    uncache t s;
    Bytes.blit data (i * sector_size) (image_dst t.disk (chunk_of s)) (offset_of s) sector_size
  done

let read_backing t ~sector ~len =
  check_backing t "read_backing" ~sector ~len;
  let out = Bytes.create len in
  for i = 0 to (len / sector_size) - 1 do
    let s = sector + i in
    Bytes.blit (read_src t s) (offset_of s) out (i * sector_size) sector_size
  done;
  out

(* Device-side data movement for one request. Both walk the range one
   chunk-run at a time, so a 4 KiB block costs one DMA copy. *)
let dma_read t ~sector ~nsect ~data_paddr =
  let i = ref 0 in
  while !i < nsect do
    let s = sector + !i in
    let src = read_src t s in
    (* Extend the run while the next sector lies in the same chunk and
       reads from the same source (cache or image). *)
    let j = ref (!i + 1) in
    while !j < nsect && (sector + !j) mod chunk_sectors <> 0 && read_src t (sector + !j) == src do
      incr j
    done;
    Phys.write
      ~paddr:(data_paddr + (!i * sector_size))
      src ~off:(offset_of s)
      ~len:((!j - !i) * sector_size);
    i := !j
  done

let dma_write_cached t ~sector ~nsect ~data_paddr =
  let i = ref 0 in
  while !i < nsect do
    let s = sector + !i in
    let c = chunk_of s in
    let first = s mod chunk_sectors in
    let n = min (nsect - !i) (chunk_sectors - first) in
    Phys.read
      ~paddr:(data_paddr + (!i * sector_size))
      (cache_chunk t c) ~off:(offset_of s) ~len:(n * sector_size);
    set_mask t c (mask t c lor (((1 lsl n) - 1) lsl first));
    i := !i + n
  done

let requests_completed t = t.completed

let requests_failed t = t.failed

let chains_processed t = t.chains

let irqs_raised t = t.irqs_raised

let dma_fault t what e =
  t.failed <- t.failed + 1;
  Sim.Stats.incr "virtio_blk.dma_fault";
  Logs.debug (fun m -> m "virtio-blk: DMA fault on %s: %s" what e)

(* Interrupt mitigation with a missed-work flag: completions landing
   while an interrupt is still pending re-raise once it has been taken,
   so no completion is ever silently lost. *)
let rec raise_coalesced t =
  if t.irq_pending then t.irq_missed <- true
  else begin
    t.irq_pending <- true;
    t.irqs_raised <- t.irqs_raised + 1;
    Irq_chip.raise_irq (Irq_chip.Device t.dev_id) ~vector:t.vector;
    ignore
      (Sim.Events.schedule_after 1 (fun () ->
           t.irq_pending <- false;
           if t.irq_missed then begin
             t.irq_missed <- false;
             raise_coalesced t
           end))
  end

(* Service one descriptor: DMA the descriptor, move the data, write
   status. Runs as a device event, not kernel code. Returns [true] when
   the status word was written (the request deserves an interrupt) —
   the caller raises one interrupt per chain, not per descriptor.

   Request types: 0 read, 1 write (into the volatile cache), 2 flush
   (drain cache to the disk image), 3 FUA write (write-through: the
   sectors are durable before the completion fires). *)
let execute_one t desc_paddr =
  if t.dead then false
  else begin
    let hdr = t.hdr in
    match Iommu.access ~dev:t.dev_id ~paddr:desc_paddr ~len:desc_size with
    | Error e ->
      dma_fault t "descriptor" e;
      false
    | Ok () ->
      Phys.read ~paddr:desc_paddr hdr ~off:0 ~len:24;
      let typ = Int32.to_int (Bytes.get_int32_le hdr 0) in
      let len = Int32.to_int (Bytes.get_int32_le hdr 4) in
      let sector = Int64.to_int (Bytes.get_int64_le hdr 8) in
      let data_paddr = Int64.to_int (Bytes.get_int64_le hdr 16) in
      let finish status =
        (* Fault plane: a hostile/flaky disk. An injected error completes
           with status 1; an injected drop never writes the status word —
           the kernel's per-bio deadline must notice. Mid-chain, a drop or
           error hits only this descriptor; its neighbours complete. *)
        if t.dead then false
        else if Sim.Fault.roll "blk.drop" then begin
          t.failed <- t.failed + 1;
          Sim.Stats.incr "virtio_blk.dropped_completion";
          false
        end
        else begin
          let status = if status = 0 && Sim.Fault.roll "blk.io_error" then 1 else status in
          (* Completion stamp, written unconditionally alongside the
             status word so enabling kspan changes nothing the device
             does: the driver splits service time from IRQ-delivery
             delay with it. *)
          Phys.write_u64 (desc_paddr + 40) (Sim.Clock.now ());
          Phys.write_u32 (desc_paddr + 24) status;
          if status = 0 then t.completed <- t.completed + 1 else t.failed <- t.failed + 1;
          true
        end
      in
      let nsect = len / sector_size in
      if (not (in_range t ~sector ~nsect)) || len mod sector_size <> 0 then finish 1
      else begin
        match typ with
        | 2 (* flush: the only ordinary path to durability *) ->
          if flush_cache t then finish 0 else false
        | 0 (* read: device writes into memory *) -> (
          match Iommu.access ~dev:t.dev_id ~paddr:data_paddr ~len with
          | Error e ->
            dma_fault t "data (read)" e;
            finish 1
          | Ok () ->
            dma_read t ~sector ~nsect ~data_paddr;
            finish 0)
        | 1 | 3 (* write: device reads from memory; 3 = FUA *) -> (
          match Iommu.access ~dev:t.dev_id ~paddr:data_paddr ~len with
          | Error e ->
            dma_fault t "data (write)" e;
            finish 1
          | Ok () ->
            if typ = 1 then begin
              dma_write_cached t ~sector ~nsect ~data_paddr;
              finish 0
            end
            else begin
              (* FUA: write-through, sector by sector, each one a crash
                 boundary. The data bypasses the cache, and a cached
                 older copy of the sector is dropped once it persists. *)
              let ok = ref true and i = ref 0 in
              while !ok && !i < nsect do
                Phys.read
                  ~paddr:(data_paddr + (!i * sector_size))
                  t.fua_buf ~off:0 ~len:sector_size;
                ok := persist_sector t (sector + !i) t.fua_buf 0;
                incr i
              done;
              t.fua_writes <- t.fua_writes + 1;
              if !ok then finish 0 else false
            end)
        | _ -> finish 1
      end
  end

(* Walk the [next] pointers from a chain head. Bounded at [max_chain]
   and tolerant of garbage pointers (a hostile kernel can link the chain
   anywhere; the walk just ends). Security-relevant accesses — the
   descriptor body and the data buffer — still go through the IOMMU in
   [execute_one]. *)
let chain_of head =
  let rec go acc paddr n =
    if paddr = 0 || n >= max_chain then List.rev acc
    else begin
      let next =
        if Phys.valid ~paddr ~len:desc_size then Int64.to_int (Phys.read_u64 (paddr + 32))
        else 0
      in
      go (paddr :: acc) next (n + 1)
    end
  in
  go [] head 0

(* Latency model: the first request of a chain pays the full per-op
   device latency; each chained descriptor adds only the smaller
   per-descriptor cost. The per-byte (bandwidth) part is paid in full
   either way — batching amortises overheads, not the media. *)
let chain_latency descs =
  let c = Sim.Cost.c () in
  let byte_cycles len = int_of_float (float_of_int len /. max 0.001 c.Sim.Profile.blk_dev_bpc) in
  List.fold_left
    (fun (i, acc) paddr ->
      let len = try Phys.read_u32 (paddr + 4) with Invalid_argument _ -> 0 in
      let base =
        if i = 0 then Sim.Clock.us c.Sim.Profile.blk_us_per_op
        else Sim.Clock.us c.Sim.Profile.blk_us_per_desc
      in
      (i + 1, acc + base + byte_cycles len))
    (0, 0) descs
  |> snd

let rec pump t =
  if t.dead then begin
    Queue.clear t.queue;
    t.busy <- false
  end
  else
    match Queue.take_opt t.queue with
    | None -> t.busy <- false
    | Some head ->
      t.busy <- true;
      let descs = chain_of head in
      if List.length descs > 1 then t.chains <- t.chains + 1;
      (* Injected service-time jitter: up to ~2 ms of extra latency, enough
         to trip a first-attempt bio deadline but not a retried one.
         Charged once per chain, like the real head-of-line blocking it
         models. *)
      let jitter = Sim.Fault.delay_cycles "blk.delay" ~max_cycles:(Sim.Clock.us 2000.) in
      ignore
        (Sim.Events.schedule_after
           (chain_latency descs + jitter)
           (fun () ->
             let any =
               List.fold_left (fun acc d -> if execute_one t d then true else acc) false descs
             in
             (* One completion interrupt for the whole chain. *)
             if any then raise_coalesced t;
             pump t))

let notify t desc_paddr =
  if not t.dead then begin
    Queue.push desc_paddr t.queue;
    if not t.busy then pump t
  end

let create ?disk ~capacity_sectors ~mmio_base ~dev_id ~vector () =
  let disk =
    match disk with
    | Some d ->
      assert (d.dcap = capacity_sectors);
      d
    | None -> create_disk ~capacity_sectors
  in
  let t =
    {
      dev_id;
      vector;
      capacity = capacity_sectors;
      disk;
      cache = Array.make (nchunks ~capacity_sectors) absent;
      cmask = Bytes.make (nchunks ~capacity_sectors) '\000';
      dirty = Array.make (nchunks ~capacity_sectors) 0;
      ndirty = 0;
      pool = Stack.create ();
      hdr = Bytes.create 24;
      fua_buf = Bytes.create sector_size;
      queue = Queue.create ();
      busy = false;
      dead = false;
      completed = 0;
      failed = 0;
      chains = 0;
      flushes = 0;
      fua_writes = 0;
      irqs_raised = 0;
      irq_pending = false;
      irq_missed = false;
    }
  in
  let read ~off ~len:_ =
    if off = reg_magic then 0x74726976L
    else if off = reg_device_id then 2L
    else if off = reg_capacity then Int64.of_int t.capacity
    else 0L
  in
  let write ~off ~len:_ v = if off = reg_queue_notify then notify t (Int64.to_int v) in
  Mmio.register
    { base = mmio_base; size = 0x100; name = "virtio-blk"; sensitive = false; read; write };
  Bus.register
    { Bus.dev_id; kind = Bus.Blk; mmio_base; mmio_size = 0x100; vector };
  t
