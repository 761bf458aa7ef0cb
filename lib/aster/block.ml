let block_size = 4096

let sectors_per_block = block_size / 512

type op = Read | Write | Write_fua | Flush

type bio = {
  op : op;
  sector : int;
  frame : Ostd.Frame.t option;
  len : int;
  mutable status : int option;
  wq : Ostd.Wait_queue.t;
  (* kspan ownership: the request span this bio belongs to (0 = none),
     captured at creation and inherited by every clone so the owner
     survives merges, batch splits and the retry ladder. Only the
     primary (caller-visible) bio reports segments and the conservation
     count — clones are implementation detail. *)
  span : int;
  primary : bool;
  created : int64;
  mutable issued : int64; (* driver pushed it to the device; 0 = never *)
  mutable dev_done : int64; (* device-written completion stamp; 0 = unknown *)
}

let make_bio op ~sector ?frame ~len () =
  (match (op, frame) with
  | (Read | Write | Write_fua), None ->
    Ostd.Panic.panic "Block.make_bio: data op without a buffer"
  | _ -> ());
  let span = Sim.Span.current () in
  (* Span-ownership conservation: one creation count per span-owned
     primary bio. Clones made for merging never re-count; completion
     counts exactly once (span.bio_completed), so the two counters must
     agree across merges, batch splits and per-bio EIO fallback. *)
  if span > 0 then Sim.Stats.incr "span.bio_created";
  {
    op; sector; frame; len; status = None; wq = Ostd.Wait_queue.create ();
    span; primary = true; created = Sim.Clock.now ();
    issued = 0L; dev_done = 0L;
  }

let bio_status bio = bio.status

let bio_op bio = bio.op

let bio_sector bio = bio.sector

let bio_frame bio = bio.frame

let bio_len bio = bio.len

let bio_span bio = bio.span

let note_issued bio = if Int64.equal bio.issued 0L then bio.issued <- Sim.Clock.now ()

let note_dev_done bio ts = bio.dev_done <- ts

let complete_bio bio ~status =
  let first = bio.status = None in
  bio.status <- Some status;
  (* Waterfall segments for the owning span, recorded once on the
     primary bio: queue wait (creation → device issue), device service
     (issue → the device's completion stamp), and IRQ-delivery delay
     (stamp → this completion running). Missing stamps degrade
     gracefully — the whole interval collapses into the earlier leg. *)
  if first && bio.primary && bio.span > 0 then begin
    let now = Sim.Clock.now () in
    let q_end = if Int64.compare bio.issued 0L > 0 then bio.issued else now in
    Sim.Span.add_to bio.span "blk.queue" bio.created q_end;
    if Int64.compare bio.issued 0L > 0 then begin
      let s_end = if Int64.compare bio.dev_done 0L > 0 then bio.dev_done else now in
      Sim.Span.add_to bio.span "blk.service" bio.issued s_end;
      if Int64.compare bio.dev_done 0L > 0 then
        Sim.Span.add_to bio.span "blk.irq" bio.dev_done now
    end;
    Sim.Span.count_bio_completed ()
  end;
  ignore (Ostd.Wait_queue.wake_all bio.wq)

module type DRIVER = sig
  val capacity_sectors : unit -> int
  val submit : bio -> unit
  val submit_many : bio list -> unit
  val cancel : bio -> unit
end

let driver : (module DRIVER) option ref = ref None

let register_driver d = driver := Some d

let have_driver () = !driver <> None

let the_driver () =
  match !driver with
  | Some d -> d
  | None -> Ostd.Panic.panic "Block: no block driver registered"

let capacity_sectors () =
  let (module D) = the_driver () in
  D.capacity_sectors ()

(* --- Per-bio deadlines with bounded retry ---

   A request that the device errors, delays past its deadline, or drops
   outright (no status write, no interrupt — the hostile-device
   behaviour Inv. 6 anticipates) is retried with an exponentially
   growing deadline and backoff; after [bio_max_attempts] the bio fails
   with the device's errno (EIO for a timeout). Nothing below the block
   layer can therefore hang or panic a caller. *)

let bio_max_attempts = 5

let bio_deadline_cycles attempt =
  (* 8 ms virtual for the first try, doubling, capped at 64 ms. *)
  Sim.Clock.us (8000. *. float_of_int (1 lsl min attempt 3))

let backoff_cycles attempt = Sim.Clock.us (100. *. float_of_int (1 lsl attempt))

(* Clones keep the original's span and creation time (the request has
   been queueing since the primary was made, not since this attempt)
   but are never primary: exactly one segment report and conservation
   count per caller-visible bio. *)
let clone_bio bio =
  {
    bio with
    status = None;
    wq = Ostd.Wait_queue.create ();
    primary = false;
    issued = 0L;
    dev_done = 0L;
  }

(* Wait until the bio completes or the absolute [deadline] passes. In
   task context we sleep on the bio's wait queue with a deadline; at
   early boot (mkfs / mount before tasks exist) we poll the event loop. *)
let wait_with_deadline bio ~deadline =
  match Ostd.Task.current_opt () with
  | Some _ ->
    if Ostd.Wait_queue.sleep_until_deadline bio.wq ~deadline (fun () -> bio.status <> None)
    then `Done
    else `Timeout
  | None ->
    let rec poll () =
      if bio.status <> None then `Done
      else if Int64.compare (Sim.Clock.now ()) deadline > 0 then `Timeout
      else if Sim.Events.run_next () then poll ()
      else `Timeout (* the device went silent: no completion will ever come *)
    in
    poll ()

let deadline_after cycles = Int64.add (Sim.Clock.now ()) (Int64.of_int cycles)

let op_name = function
  | Read -> "read"
  | Write -> "write"
  | Write_fua -> "write_fua"
  | Flush -> "flush"

let bio_args bio =
  Printf.sprintf "op=%s sector=%d len=%d" (op_name bio.op) bio.sector bio.len

(* Probe ctx encoding: write = 0 read / 1 write / 2 flush. *)
let op_code = function Read -> 0L | Write | Write_fua -> 1L | Flush -> 2L

let fire_issue bio =
  Sim.Trace.fire Sim.Trace.P_blk_issue (fun () ->
      [| Int64.of_int bio.sector; Int64.of_int bio.len; op_code bio.op |])

let fire_complete bio ~t0 ~status =
  Sim.Trace.fire Sim.Trace.P_blk_complete (fun () ->
      [|
        Int64.of_int bio.sector; Int64.of_int bio.len; op_code bio.op;
        Int64.of_float (Sim.Clock.to_us (Int64.sub (Sim.Clock.now ()) t0) *. 1000.);
        Int64.of_int status;
      |])

let submit_and_wait bio =
  let (module D) = the_driver () in
  let t0 = Sim.Clock.now () in
  let observe_latency () =
    Sim.Hist.observe "blk.bio" (Sim.Clock.to_us (Int64.sub (Sim.Clock.now ()) t0))
  in
  (* Each attempt submits a fresh clone; the caller's bio is completed
     exactly once, with the final outcome, whatever the attempts did. *)
  let rec attempt n =
    let b = clone_bio bio in
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.blk_issue;
    Sim.Trace.emit Sim.Trace.Blk "issue" (fun () ->
        Printf.sprintf "%s attempt=%d" (bio_args bio) n);
    fire_issue bio;
    D.submit b;
    match wait_with_deadline b ~deadline:(deadline_after (bio_deadline_cycles n)) with
    | `Done -> (
      match b.status with
      | Some 0 ->
        if n > 0 then Sim.Stats.incr "degrade.recovered.blk_bio";
        Sim.Trace.emit Sim.Trace.Blk "complete" (fun () ->
            Printf.sprintf "%s attempts=%d" (bio_args bio) (n + 1));
        observe_latency ();
        (* The winning attempt's device timestamps become the primary
           bio's, so its span segments reflect the service that
           actually completed it. *)
        bio.issued <- b.issued;
        bio.dev_done <- b.dev_done;
        fire_complete bio ~t0 ~status:0;
        complete_bio bio ~status:0;
        Ok ()
      | Some e -> retry_or_fail n e
      | None -> assert false)
    | `Timeout ->
      Sim.Stats.incr "blk.bio_timeout";
      (* The device may still complete the stale request later; the
         driver quarantines its buffers so late DMA cannot land in
         reused memory. *)
      D.cancel b;
      retry_or_fail n Errno.eio
  and retry_or_fail n e =
    if n + 1 >= bio_max_attempts then begin
      Sim.Stats.incr "degrade.gave_up.blk_bio";
      Sim.Trace.emit Sim.Trace.Blk "give_up" (fun () ->
          Printf.sprintf "%s errno=%d" (bio_args bio) e);
      observe_latency ();
      fire_complete bio ~t0 ~status:e;
      complete_bio bio ~status:e;
      Error e
    end
    else begin
      Sim.Stats.incr "degrade.retried.blk_bio";
      Sim.Trace.emit Sim.Trace.Blk "retry" (fun () ->
          Printf.sprintf "%s attempt=%d errno=%d" (bio_args bio) n e);
      (match Ostd.Task.current_opt () with
      | Some _ -> Ostd.Task.sleep_cycles (backoff_cycles n)
      | None -> ());
      attempt (n + 1)
    end
  in
  (* kprof: block-layer time (issue, waits, retries) folds under "blk". *)
  Sim.Prof.scope "blk" (fun () -> attempt 0)

(* --- Batched submission (the plug/unplug request queue) ---

   [submit_batch] sector-sorts its bios and merges adjacent same-op bios
   into multi-request descriptor chains, each issued with one
   [blk_issue] charge, one doorbell, and one completion interrupt, under
   a single shared deadline. A batch in which any request errors or
   times out is split back into per-bio [submit_and_wait] attempts, so
   the retry/EIO story stays exactly the single-bio one. *)

let max_batch = 32

let op_rank = function Read -> 0 | Write -> 1 | Write_fua -> 2 | Flush -> 3

(* One deadline for the whole chain: first-attempt bio deadline plus a
   per-request allowance comfortably above the device's per-descriptor
   service time. *)
let batch_deadline_cycles n = Sim.Clock.us (8000. +. (250. *. float_of_int n))

(* Wait for every clone against one shared absolute deadline, reusing
   the per-bio wait (works in task context and boot-time polling). *)
let wait_batch clones ~cycles =
  let deadline = deadline_after cycles in
  List.iter
    (fun b ->
      if Int64.compare (Sim.Clock.now ()) deadline < 0 then ignore (wait_with_deadline b ~deadline))
    clones

(* Split sorted bios into runs of same-op, sector-adjacent requests. *)
let merge_runs bios =
  let sorted =
    List.sort
      (fun a b ->
        match compare (op_rank a.op) (op_rank b.op) with
        | 0 -> compare a.sector b.sector
        | c -> c)
      bios
  in
  let flush_run acc run = match run with [] -> acc | _ -> List.rev run :: acc in
  let acc, run, _ =
    List.fold_left
      (fun (acc, run, prev) b ->
        match prev with
        | Some p
          when p.op = b.op && b.op <> Flush
               && b.sector = p.sector + (p.len / 512)
               && List.length run < max_batch -> (acc, b :: run, Some b)
        | _ -> (flush_run acc run, [ b ], Some b))
      ([], [], None) sorted
  in
  List.rev (flush_run acc run)

let issue_run run =
  let (module D) = the_driver () in
  match run with
  | [] -> ()
  | [ bio ] -> ignore (submit_and_wait bio)
  | first :: _ ->
    let n = List.length run in
    Sim.Stats.add "blk.merge" (n - 1);
    Sim.Stats.incr "blk.batch";
    Sim.Prof.scope "blk" (fun () ->
        let t0 = Sim.Clock.now () in
        Sim.Trace.emit Sim.Trace.Blk "batch_issue" (fun () ->
            Printf.sprintf "op=%s sector=%d nreq=%d" (op_name first.op) first.sector n);
        let clones = List.map clone_bio run in
        Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.blk_issue;
        List.iter fire_issue run;
        D.submit_many clones;
        wait_batch clones ~cycles:(batch_deadline_cycles n);
        if List.for_all (fun c -> c.status = Some 0) clones then begin
          let lat = Sim.Clock.to_us (Int64.sub (Sim.Clock.now ()) t0) in
          Sim.Trace.emit Sim.Trace.Blk "batch_complete" (fun () ->
              Printf.sprintf "op=%s sector=%d nreq=%d" (op_name first.op) first.sector n);
          List.iter2
            (fun bio c ->
              bio.issued <- c.issued;
              bio.dev_done <- c.dev_done;
              Sim.Hist.observe "blk.bio" lat;
              fire_complete bio ~t0 ~status:0;
              complete_bio bio ~status:0)
            run clones
        end
        else begin
          (* Mid-batch error or timeout: quarantine what never completed
             and fall back to per-bio submission, whose retry ladder and
             EIO propagation the callers already rely on. *)
          Sim.Stats.incr "blk.batch_split";
          Sim.Trace.emit Sim.Trace.Blk "batch_split" (fun () ->
              Printf.sprintf "op=%s sector=%d nreq=%d" (op_name first.op) first.sector n);
          List.iter (fun c -> if c.status = None then D.cancel c) clones;
          List.iter2
            (fun bio c ->
              match c.status with
              | Some 0 ->
                bio.issued <- c.issued;
                bio.dev_done <- c.dev_done;
                Sim.Hist.observe "blk.bio" (Sim.Clock.to_us (Int64.sub (Sim.Clock.now ()) t0));
                fire_complete bio ~t0 ~status:0;
                complete_bio bio ~status:0
              | _ -> ignore (submit_and_wait bio))
            run clones
        end)

let submit_batch bios =
  if (Sim.Profile.get ()).Sim.Profile.blk_batching then List.iter issue_run (merge_runs bios)
  else List.iter (fun bio -> ignore (submit_and_wait bio)) bios

(* --- Buffer cache --- *)

type centry = { cframe : Ostd.Frame.t; mutable prefetched : bool }

let cache : (int, centry) Hashtbl.t = Hashtbl.create 1024

(* Background-writeback bookkeeping (dirty_ratio-style throttling). *)
let dirty_fifo : int Queue.t = Queue.create ()

(* The dirty index: the only record of which cached blocks are dirty,
   so sync and the dirty count cost O(dirty), not O(cache). *)
let dirty_index : (int, centry) Hashtbl.t = Hashtbl.create 256

let is_dirty blockno = Hashtbl.mem dirty_index blockno

let dirty_blocks () = Hashtbl.length dirty_index

let flusher_running = ref false

let throttle_wq = ref (Ostd.Wait_queue.create ())

let bg_dirty_threshold = 768

let hard_dirty_limit = 4096

(* Sticky writeback errors, errseq_t-style: background writeback runs
   in softirq context and cannot raise, so a block whose retries are
   exhausted bumps a global error sequence (and the data is dropped —
   counted as [degrade.gave_up.writeback]). Every interested party
   samples the sequence when it starts caring (a file at open(2), the
   legacy sync(2) consumer at its last report) and later asks "did an
   error happen since my sample?" — so an fsync on an affected file
   observes the loss even if some other sync(2) caller reported it
   first, exactly Linux's errseq_t semantics. *)
let wb_err_seq = ref 0

let wb_err_code = ref 0

(* The module-level sample backing the legacy first-caller-consumes
   behaviour of [sync]. *)
let sync_sample = ref 0

let record_wb_err e =
  incr wb_err_seq;
  wb_err_code := e

let wb_errseq () = !wb_err_seq

let wb_check ~since =
  if !wb_err_seq > since then Error (!wb_err_seq, !wb_err_code) else Ok ()

(* Journal-pinned blocks: the journal has logged these and not yet
   checkpointed them, so their home location on disk must not be
   overwritten — writeback (background or sync) skips them until the
   journal unpins. *)
let pinned : (int, unit) Hashtbl.t = Hashtbl.create 64

let is_pinned blockno = Hashtbl.mem pinned blockno

let reset () =
  throttle_wq := Ostd.Wait_queue.create ();
  driver := None;
  (* Frames belong to the old boot's metadata; just forget them. *)
  Hashtbl.reset cache;
  Queue.clear dirty_fifo;
  Hashtbl.reset dirty_index;
  flusher_running := false;
  Hashtbl.reset pinned;
  wb_err_seq := 0;
  wb_err_code := 0;
  sync_sample := 0

let entry_of blockno ~fill =
  match Hashtbl.find_opt cache blockno with
  | Some e ->
    (* A demand hit on a block readahead brought in: the window paid off. *)
    if e.prefetched then begin
      e.prefetched <- false;
      Sim.Stats.incr "blk.readahead.hit"
    end;
    e
  | None ->
    let cframe = Ostd.Frame.alloc ~untyped:true () in
    if fill then begin
      Sim.Stats.incr "blk.readahead.miss";
      let bio =
        make_bio Read ~sector:(blockno * sectors_per_block) ~frame:cframe ~len:block_size ()
      in
      match submit_and_wait bio with
      | Ok () -> ()
      | Error e ->
        (* A read the device cannot serve even after retries is a
           service failure, not an invariant violation: the frame is
           dropped and EIO propagates to whoever asked. *)
        Ostd.Frame.drop cframe;
        Ostd.Panic.failf ~errno:e "buffer cache: read of block %d failed" blockno
    end
    else Ostd.Untyped.fill cframe ~off:0 ~len:block_size '\000';
    let e = { cframe; prefetched = false } in
    Hashtbl.add cache blockno e;
    e

let read_block blockno = (entry_of blockno ~fill:true).cframe

let read_from_block blockno ~off ~buf ~pos ~len =
  let e = entry_of blockno ~fill:true in
  Sim.Cost.charge_memcpy len;
  Ostd.Untyped.read_bytes e.cframe ~off ~buf ~pos ~len

(* Readahead / plug back end: pull a set of not-yet-cached blocks in
   with one batched submission and insert the successes as clean
   entries. Failures are dropped silently — this is a hint, and the
   demand read that eventually wants the block will retry (and report)
   on its own. [mark] distinguishes speculative readahead (entries
   tagged so a later demand hit counts [blk.readahead.hit]) from
   batching the demand range itself, which is not speculation. *)
let prefetch_blocks ?(mark = true) blocknos =
  let blocknos =
    List.filter (fun b -> not (Hashtbl.mem cache b)) (List.sort_uniq compare blocknos)
  in
  if blocknos <> [] then begin
    if mark then Sim.Stats.add "blk.readahead.issued" (List.length blocknos)
    else Sim.Stats.add "blk.plug_read" (List.length blocknos);
    let reqs =
      List.map
        (fun b ->
          let f = Ostd.Frame.alloc ~untyped:true () in
          (b, f, make_bio Read ~sector:(b * sectors_per_block) ~frame:f ~len:block_size ()))
        blocknos
    in
    submit_batch (List.map (fun (_, _, bio) -> bio) reqs);
    List.iter
      (fun (b, f, bio) ->
        if bio_status bio = Some 0 && not (Hashtbl.mem cache b) then
          Hashtbl.add cache b { cframe = f; prefetched = mark }
        else Ostd.Frame.drop f)
      reqs
  end

(* Drop every clean entry (used by cold-cache benchmark phases). Dirty
   blocks stay — dropping them would lose data — and so do journal-pinned
   ones: their home location on disk is stale by definition, so a
   re-read would resurrect pre-transaction bytes. Returns the count. *)
let drop_clean () =
  let victims =
    Hashtbl.fold
      (fun b e acc -> if is_dirty b || is_pinned b then acc else (b, e) :: acc)
      cache []
  in
  List.iter
    (fun (b, e) ->
      Hashtbl.remove cache b;
      Ostd.Frame.drop e.cframe)
    victims;
  List.length victims

(* Write back a sorted [(blockno, entry)] list as merged, batched
   writes. [submit_batch] guarantees every bio is complete on return; a
   block whose write failed even after the per-bio retry ladder is
   dropped with the errseq-style sticky error (softirq context cannot
   raise, and keeping it dirty would make the flusher spin on it). *)
let writeback_many pairs =
  (* Sort (so adjacent dirty blocks merge) and dedup: the FIFO can name
     a block twice, and one write is all it needs.
     Journal-pinned blocks are skipped: their home location must stay
     untouched until the journal checkpoints them. *)
  let pairs = List.sort_uniq (fun (a, _) (b, _) -> compare a b) pairs in
  match List.filter (fun (b, _) -> is_dirty b && not (is_pinned b)) pairs with
  | [] -> ()
  | dirty ->
    let reqs =
      List.map
        (fun (b, e) ->
          (make_bio Write ~sector:(b * sectors_per_block) ~frame:e.cframe ~len:block_size (), b))
        dirty
    in
    submit_batch (List.map fst reqs);
    List.iter
      (fun (bio, b) ->
        (match bio_status bio with
        | Some 0 -> ()
        | Some err ->
          Sim.Stats.incr "degrade.gave_up.writeback";
          record_wb_err err
        | None -> assert false);
        Hashtbl.remove dirty_index b)
      reqs

(* Background flusher: drain up to 512 dirty blocks from the FIFO per
   round, sorted and merged into batched writes (writeback coalescing —
   adjacent dirty blocks of a sequential writer become one chain). *)
let rec flush_batch () =
  let budget = ref 512 in
  let continue = ref true in
  let victims = ref [] in
  while !continue && !budget > 0 do
    match Queue.take_opt dirty_fifo with
    | None -> continue := false
    | Some blockno -> (
      match Hashtbl.find_opt dirty_index blockno with
      (* A journal-pinned victim is parked: it leaves the FIFO (so the
         flusher cannot spin on it) and is re-queued when the journal
         unpins it at checkpoint. *)
      | Some e when not (is_pinned blockno) ->
        victims := (blockno, e) :: !victims;
        decr budget
      | Some _ | None -> ())
  done;
  writeback_many !victims;
  ignore (Ostd.Wait_queue.wake_all !throttle_wq);
  (* Recurse only while the FIFO can still make progress: with every
     remaining dirty block pinned, another round would busy-spin. *)
  if dirty_blocks () > bg_dirty_threshold && not (Queue.is_empty dirty_fifo) then
    flush_batch ()
  else flusher_running := false

let maybe_start_writeback () =
  if dirty_blocks () > bg_dirty_threshold && not !flusher_running then begin
    flusher_running := true;
    Softirq.queue_work flush_batch
  end;
  (* dirty_ratio hard wall: writers stall until the flusher catches up
     (only meaningful in task context). *)
  if dirty_blocks () > hard_dirty_limit && Ostd.Task.current_opt () <> None then
    Ostd.Wait_queue.sleep_until !throttle_wq (fun () -> dirty_blocks () <= hard_dirty_limit)

(* Every path that turns a clean block dirty goes through here. *)
let set_dirty blockno e =
  if not (is_dirty blockno) then begin
    Hashtbl.replace dirty_index blockno e;
    Queue.push blockno dirty_fifo;
    maybe_start_writeback ()
  end

let write_to_block blockno ~off ~buf ~pos ~len =
  let whole = off = 0 && len = block_size in
  let e = entry_of blockno ~fill:(not whole) in
  Sim.Cost.charge_memcpy len;
  Ostd.Untyped.write_bytes e.cframe ~off ~buf ~pos ~len;
  set_dirty blockno e

let zero_block blockno =
  let e = entry_of blockno ~fill:false in
  Ostd.Untyped.fill e.cframe ~off:0 ~len:block_size '\000';
  set_dirty blockno e

let mark_dirty blockno =
  match Hashtbl.find_opt cache blockno with
  | Some e -> set_dirty blockno e
  | None -> ()

let cached_blocks () = Hashtbl.length cache

(* Journal pinning. [unpin] re-queues a still-dirty block for
   writeback: the flusher may have parked it (dropped it from the FIFO
   without writing) while it was pinned. *)
let pin blockno = Hashtbl.replace pinned blockno ()

let unpin blockno =
  if Hashtbl.mem pinned blockno then begin
    Hashtbl.remove pinned blockno;
    if is_dirty blockno then Queue.push blockno dirty_fifo
  end

let flush_device () =
  Sim.Stats.incr "blk.flush";
  let bio = make_bio Flush ~sector:0 ~len:0 () in
  submit_and_wait bio

(* Write [buf] to [blockno] on the device, bypassing the cache entry
   entirely. The journal checkpoints a frozen (committed) image this
   way while the cache already holds newer uncommitted bytes. Reaches
   the volatile device cache only — follow with [flush_device] (or a
   [sync]) for durability. *)
let write_through blockno buf =
  let scratch = Ostd.Frame.alloc ~untyped:true () in
  Ostd.Untyped.write_bytes scratch ~off:0 ~buf ~pos:0 ~len:block_size;
  let bio =
    make_bio Write ~sector:(blockno * sectors_per_block) ~frame:scratch ~len:block_size ()
  in
  let r = submit_and_wait bio in
  Ostd.Frame.drop scratch;
  r

(* FUA write of one cached block: write-through, durable before this
   returns. The journal's commit record rides on this — it must not
   linger in the device's volatile cache behind the transaction it
   seals. *)
let write_block_fua blockno =
  match Hashtbl.find_opt cache blockno with
  | None -> Ok ()
  | Some e ->
    Sim.Stats.incr "blk.fua";
    let bio =
      make_bio Write_fua ~sector:(blockno * sectors_per_block) ~frame:e.cframe
        ~len:block_size ()
    in
    let r = submit_and_wait bio in
    if Result.is_ok r then Hashtbl.remove dirty_index blockno;
    r

(* Legacy sync(2) consumption: report an error once to the first sync
   caller after it happened, via the module-level errseq sample. *)
let consume_wb_err () =
  match wb_check ~since:!sync_sample with
  | Error (seq, code) ->
    sync_sample := seq;
    Error code
  | Ok () -> Ok ()

(* [sync]/[sync_blocks] always end in a device flush: earlier
   background writeback may have parked data in the device's volatile
   cache, and pushing pages to the driver is not durability. *)
let sync () =
  let dirty = Hashtbl.fold (fun b e acc -> (b, e) :: acc) dirty_index [] in
  writeback_many dirty;
  let flushed = flush_device () in
  match consume_wb_err () with Error _ as e -> e | Ok () -> flushed

let sync_blocks blocks =
  let dirty =
    List.filter_map
      (fun b -> Option.map (fun e -> (b, e)) (Hashtbl.find_opt dirty_index b))
      (List.sort_uniq compare blocks)
  in
  writeback_many dirty;
  let flushed = flush_device () in
  match consume_wb_err () with Error _ as e -> e | Ok () -> flushed

(* Durability crosscheck for the chaos soak: re-read every clean cached
   block straight from the device and byte-compare against the cache.
   Right after a successful [sync] every block is clean, so a non-zero
   mismatch count means data was lost or corrupted on its way to
   stable storage. Runs in polling mode too (after [Kernel.run]
   returns). Returns [(blocks_checked, mismatches)]. *)
let verify_cache_against_device () =
  let entries = Hashtbl.fold (fun b e acc -> (b, e) :: acc) cache [] in
  let entries = List.sort (fun (a, _) (b, _) -> compare a b) entries in
  let scratch = Ostd.Frame.alloc ~untyped:true () in
  let want = Bytes.create block_size in
  let got = Bytes.create block_size in
  let checked = ref 0 in
  let mismatches = ref 0 in
  List.iter
    (fun (blockno, e) ->
      if not (is_dirty blockno) then begin
        let bio =
          make_bio Read ~sector:(blockno * sectors_per_block) ~frame:scratch ~len:block_size ()
        in
        match submit_and_wait bio with
        | Ok () ->
          incr checked;
          Ostd.Untyped.read_bytes e.cframe ~off:0 ~buf:want ~pos:0 ~len:block_size;
          Ostd.Untyped.read_bytes scratch ~off:0 ~buf:got ~pos:0 ~len:block_size;
          if not (Bytes.equal want got) then incr mismatches
        | Error _ ->
          (* Can't read it back at all: that is a mismatch with stable
             storage as far as durability is concerned. *)
          incr checked;
          incr mismatches
      end)
    entries;
  Ostd.Frame.drop scratch;
  (!checked, !mismatches)
