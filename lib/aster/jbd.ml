(* JBD2-style write-ahead journal for ext2 metadata (ordered mode:
   file data goes straight home, only metadata is journaled).

   On-disk format, inside a block range the filesystem reserves:

   {v
     slot 0                 journal superblock:
                              off 0  u32  magic
                              off 4  u32  seq of the first live txn
     slot s                 descriptor:
                              off 0  u32  desc magic
                              off 4  u32  seq
                              off 8  u32  n (home blocks in this txn)
                              off 12 u32[n] home block numbers
     slot s+1 .. s+n        full-block content copies, in blockno order
     slot s+n+1             commit record:
                              off 0  u32  commit magic
                              off 4  u32  seq
                              off 8  u32  checksum of the content (64-bit word fold)
   v}

   Barrier ordering at commit (the rules DESIGN.md §4g spells out):
   descriptor + content copies are made durable with a writeback +
   device flush (barrier 1) before the commit record is written with
   FUA (barrier 2). A transaction therefore either has a valid,
   checksummed commit record — and every one of its blocks — or it is
   torn and replay discards it wholesale. Home locations are pinned in
   the buffer cache from first touch until checkpoint, so no
   half-updated metadata block can reach its home ahead of its commit
   record.

   Concurrency is a handle gate rather than a mutex (commit must also
   run at early boot, before tasks exist): mutating fs operations run
   inside [with_handle], commit waits for open handles to drain and
   holds new ones out while it runs. *)

let jsb_magic = 0x4A42_4453 (* "JBDS" *)

let desc_magic = 0x4A42_4444

let commit_magic = 0x4A42_4443

let block_size = Block.block_size

(* Largest single transaction (home blocks per commit). An oversized
   transaction commits in chunks; each chunk is atomic on its own, which
   can split one file operation across transactions. *)
let max_txn = 24

(* --- Configuration and state --- *)

let jstart = ref 0

let jblocks = ref 0

let enabled = ref false

(* Sequence number of the next transaction to commit; on disk, the
   journal superblock holds the seq of the first live (unreplayed,
   uncheckpointed) transaction. *)
let seq = ref 1

let next_slot = ref 1

(* [running] holds the blocks dirtied since the last commit; [committed]
   holds blocks whose transaction is logged (commit record durable) but
   not yet checkpointed. A block the running transaction re-dirties
   while it sits in [committed] gets a FROZEN copy of its committed
   image (JBD2's frozen buffer): checkpoint writes the frozen bytes
   home, never the newer uncommitted ones in the cache. This keeps
   [touch] yield-free — critical, because it is called mid
   read-modify-write of bitmaps and counters; a checkpoint-on-touch
   would sleep on I/O there and let another task in half-way.

   Invariants: committed[b] = None  ⇒  b ∉ running (checkpoint uses the
   cache content, which is exactly the committed image);
   committed[b] = Some img  ⇒  b ∈ running (cache is newer; checkpoint
   must use [img]). Pinned = running ∪ committed. *)
let running : (int, unit) Hashtbl.t = Hashtbl.create 64

let committed : (int, Bytes.t option) Hashtbl.t = Hashtbl.create 64

let open_handles = ref 0

let committing = ref false

(* Observability accessors for the probe plane: whether a commit is in
   progress right now, and a monotonically increasing count of chunk
   commits so a syscall can tell whether any commit overlapped its
   lifetime (sample at entry, compare at exit). *)
let is_committing () = !committing

let commit_seq = ref 0

let commits () = !commit_seq

let gate_wq = ref (Ostd.Wait_queue.create ())

let recovery_rev : string list ref = ref []

let reset () =
  jstart := 0;
  jblocks := 0;
  enabled := false;
  seq := 1;
  next_slot := 1;
  Hashtbl.reset running;
  Hashtbl.reset committed;
  open_handles := 0;
  committing := false;
  commit_seq := 0;
  gate_wq := Ostd.Wait_queue.create ();
  recovery_rev := []

let configure ~start ~blocks =
  jstart := start;
  jblocks := blocks;
  enabled := true;
  seq := 1;
  next_slot := 1;
  Hashtbl.reset running;
  Hashtbl.reset committed;
  recovery_rev := []

let disable_journal () = enabled := false

let is_enabled () = !enabled

let recovery_log () = List.rev !recovery_rev

let log_line fmt =
  Printf.ksprintf (fun s -> recovery_rev := s :: !recovery_rev) fmt

(* --- Raw journal-slot I/O (through the buffer cache) --- *)

let slot_block s = !jstart + s

let read_whole blockno =
  let b = Bytes.create block_size in
  Block.read_from_block blockno ~off:0 ~buf:b ~pos:0 ~len:block_size;
  b

let write_whole blockno b =
  Block.write_to_block blockno ~off:0 ~buf:b ~pos:0 ~len:block_size

let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* One checksum step over a 64-bit word. The multiply by an odd prime
   and the xor-shift are both bijections of the state, so flipping any
   bit of [w] changes the result. The state stays in [Int64]: an [int]
   would drop bit 63, and truncating each product to 32 bits would drop
   the high half of every word. *)
let mix x w =
  let y = Int64.mul (Int64.logxor x w) 0x100000001b3L in
  Int64.logxor y (Int64.shift_right_logical y 29)

(* Fold the content blocks in a 64-bit little-endian word at a time,
   then fold the state to 32 bits. Seeded with the transaction seq, so
   a stale commit record can never vouch for fresh content. *)
let checksum ~txn_seq contents =
  let fold_block x b =
    let x = ref x in
    for i = 0 to (Bytes.length b / 8) - 1 do
      x := mix !x (Bytes.get_int64_le b (8 * i))
    done;
    !x
  in
  let x = List.fold_left fold_block (mix 0xcbf29ce484222325L (Int64.of_int txn_seq)) contents in
  Int64.to_int (Int64.logxor x (Int64.shift_right_logical x 32)) land 0xffffffff

(* --- Journal superblock --- *)

let write_jsb () =
  let b = Bytes.make block_size '\000' in
  put_u32 b 0 jsb_magic;
  put_u32 b 4 !seq;
  write_whole (slot_block 0) b;
  Block.sync_blocks [ slot_block 0 ]

(* mkfs: a fresh, empty journal. *)
let format () =
  seq := 1;
  next_slot := 1;
  Hashtbl.reset running;
  Hashtbl.reset committed;
  match write_jsb () with
  | Ok () -> ()
  | Error e -> Ostd.Panic.failf ~errno:e "jbd: cannot format journal"

(* --- Checkpoint ---

   Write every committed block to its home location, make that durable,
   then advance the journal tail (superblock seq) so the space can be
   reused. The tail moves only after the homes are on stable storage:
   a crash at any interior point replays the still-live transactions
   and converges to the same state. *)

let do_checkpoint () =
  if !enabled && (Hashtbl.length committed > 0 || !next_slot > 1) then
    Sim.Prof.scope "jbd" (fun () ->
        let homes =
          List.sort (fun (a, _) (b, _) -> compare a b)
            (Hashtbl.fold (fun b img acc -> (b, img) :: acc) committed [])
        in
        (* Frozen blocks first: their committed image goes straight to
           the device (the cache holds newer, uncommitted bytes and must
           stay pinned for the running transaction). *)
        List.iter
          (fun (b, img) ->
            match img with
            | None -> ()
            | Some bytes -> (
              match Block.write_through b bytes with
              | Ok () -> ()
              | Error e -> Ostd.Panic.failf ~errno:e "jbd: checkpoint writeback failed"))
          homes;
        let plain = List.filter_map (fun (b, img) -> if img = None then Some b else None) homes in
        List.iter Block.unpin plain;
        match Block.sync_blocks plain with
        | Error e ->
          (* Homes may not be durable: keep the journal live (re-pin,
             tail stays) so replay can still reconstruct them. *)
          List.iter Block.pin plain;
          Ostd.Panic.failf ~errno:e "jbd: checkpoint writeback failed"
        | Ok () ->
          Hashtbl.reset committed;
          next_slot := 1;
          (match write_jsb () with
          | Ok () -> ()
          | Error e -> Ostd.Panic.failf ~errno:e "jbd: checkpoint tail update failed");
          Sim.Stats.incr "jbd.checkpoint";
          Sim.Trace.emit Sim.Trace.Blk "jbd_checkpoint" (fun () ->
              Printf.sprintf "homes=%d seq=%d" (List.length homes) !seq))

(* --- Transactions --- *)

(* Record that a block is (about to be) dirtied under journal
   protection. Pinning stops writeback from racing its home location
   ahead of the commit record. *)
let touch blockno =
  if !enabled then begin
    if Hashtbl.mem running blockno then ()
    else begin
      (* A committed-but-not-checkpointed block being dirtied again:
         freeze its committed image so the eventual checkpoint writes
         that, not the new bytes, home. No I/O, no yield. *)
      (match Hashtbl.find_opt committed blockno with
      | Some None ->
        let img = read_whole blockno in
        Hashtbl.replace committed blockno (Some img);
        Sim.Stats.incr "jbd.frozen"
      | Some (Some _) | None -> ());
      Hashtbl.replace running blockno ();
      Block.pin blockno
    end
  end

let commit_chunk chunk =
  let span_t0 = Sim.Clock.now () in
  let n = List.length chunk in
  (* Make room: descriptor + n contents + commit record. *)
  if !next_slot + n + 2 > !jblocks then do_checkpoint ();
  if !next_slot + n + 2 > !jblocks then
    Ostd.Panic.panicf "jbd: transaction of %d blocks cannot fit the journal" n;
  let desc_slot = !next_slot in
  let desc = Bytes.make block_size '\000' in
  put_u32 desc 0 desc_magic;
  put_u32 desc 4 !seq;
  put_u32 desc 8 n;
  List.iteri (fun i b -> put_u32 desc (12 + (4 * i)) b) chunk;
  write_whole (slot_block desc_slot) desc;
  let contents = List.map read_whole chunk in
  List.iteri (fun i c -> write_whole (slot_block (desc_slot + 1 + i)) c) contents;
  (* Barrier 1: descriptor and content copies durable before the commit
     record can exist. *)
  let journal_slots = List.init (n + 1) (fun i -> slot_block (desc_slot + i)) in
  (match Block.sync_blocks journal_slots with
  | Ok () -> ()
  | Error e -> Ostd.Panic.failf ~errno:e "jbd: journal write failed");
  let commit_slot = desc_slot + n + 1 in
  let cb = Bytes.make block_size '\000' in
  put_u32 cb 0 commit_magic;
  put_u32 cb 4 !seq;
  put_u32 cb 8 (checksum ~txn_seq:!seq contents);
  write_whole (slot_block commit_slot) cb;
  (* Barrier 2: the commit record goes down FUA — it seals the
     transaction and must not linger in the device's volatile cache. *)
  (match Block.write_block_fua (slot_block commit_slot) with
  | Ok () -> ()
  | Error e -> Ostd.Panic.failf ~errno:e "jbd: commit record write failed");
  List.iter
    (fun b ->
      Hashtbl.remove running b;
      (* Any frozen image from an older transaction is superseded: the
         newly committed content is the one a checkpoint must write. *)
      Hashtbl.replace committed b None)
    chunk;
  Sim.Stats.incr "jbd.commit";
  (* kspan: an fsync span shows the whole commit — journal writes,
     barrier 1, and the FUA commit record — as one jbd.commit segment
     layered over the raw blk.* legs. *)
  Sim.Span.mark "jbd.commit" span_t0;
  incr commit_seq;
  Sim.Trace.emit Sim.Trace.Blk "jbd_commit" (fun () ->
      Printf.sprintf "seq=%d n=%d slot=%d" !seq n desc_slot);
  Sim.Trace.fire Sim.Trace.P_jbd_commit (fun () -> [| Int64.of_int !seq; Int64.of_int n |]);
  seq := !seq + 1;
  next_slot := commit_slot + 1

let rec chunks l =
  if List.length l <= max_txn then [ l ]
  else
    let rec split i acc rest =
      if i = 0 then (List.rev acc, rest)
      else
        match rest with [] -> (List.rev acc, []) | x :: tl -> split (i - 1) (x :: acc) tl
    in
    let hd, tl = split max_txn [] l in
    hd :: chunks tl

(* Commit the running transaction. Waits out open handles (mutating fs
   operations), so a commit never captures a half-done operation. *)
let commit () =
  if not !enabled then Ok ()
  else
    Sim.Prof.scope "jbd" (fun () ->
        (* One committer at a time; the flag is taken without yielding
           after the wait, so racing committers re-check and re-sleep. *)
        (match Ostd.Task.current_opt () with
        | Some _ -> Ostd.Wait_queue.sleep_until !gate_wq (fun () -> not !committing)
        | None -> ());
        committing := true;
        let release () =
          committing := false;
          ignore (Ostd.Wait_queue.wake_all !gate_wq)
        in
        (match Ostd.Task.current_opt () with
        | Some _ -> Ostd.Wait_queue.sleep_until !gate_wq (fun () -> !open_handles = 0)
        | None -> assert (!open_handles = 0));
        (* Ordered mode: every dirty data block goes to stable storage
           (journal-pinned metadata is skipped by the sync) before the
           transaction commits, so committed metadata never points at
           unwritten data — whichever file it belongs to. *)
        match Block.sync () with
        | Error _ as e ->
          release ();
          e
        | Ok () -> (
          match
            List.sort compare (Hashtbl.fold (fun b () acc -> b :: acc) running [])
          with
          | [] ->
            release ();
            Ok ()
          | blocks ->
            let r =
              try
                List.iter commit_chunk (chunks blocks);
                (* Lazy checkpointing: only under space pressure, and only
                   here, between transactions, where running is empty. *)
                if !next_slot > !jblocks / 2 then do_checkpoint ();
                Ok ()
              with Ostd.Panic.Service_failure { errno; _ } -> Error errno
            in
            release ();
            r))

(* Explicit checkpoint (sync_fs): takes the committing gate so it never
   interleaves with a commit or another checkpoint. *)
let checkpoint () =
  if !enabled then begin
    (match Ostd.Task.current_opt () with
    | Some _ -> Ostd.Wait_queue.sleep_until !gate_wq (fun () -> not !committing)
    | None -> ());
    committing := true;
    Fun.protect
      ~finally:(fun () ->
        committing := false;
        ignore (Ostd.Wait_queue.wake_all !gate_wq))
      (fun () ->
        (* Drain mutators: a checkpoint mid-operation could write a
           half-updated block home from the cache. *)
        (match Ostd.Task.current_opt () with
        | Some _ -> Ostd.Wait_queue.sleep_until !gate_wq (fun () -> !open_handles = 0)
        | None -> assert (!open_handles = 0));
        do_checkpoint ())
  end

(* A mutating fs operation holds a handle for its duration; commit
   drains and excludes them. Only meaningful in task context — at boot
   there is exactly one flow of control. *)
let with_handle f =
  if not !enabled then f ()
  else begin
    (match Ostd.Task.current_opt () with
    | Some _ -> Ostd.Wait_queue.sleep_until !gate_wq (fun () -> not !committing)
    | None -> ());
    incr open_handles;
    Fun.protect
      ~finally:(fun () ->
        decr open_handles;
        ignore (Ostd.Wait_queue.wake_all !gate_wq))
      f
  end

(* --- Mount-time replay --- *)

(* Validate a descriptor's home block list: inside the device, outside
   the journal area. *)
let homes_valid homes =
  let total = Block.capacity_sectors () / Block.sectors_per_block in
  List.for_all
    (fun b -> b >= 0 && b < total && not (b >= !jstart && b < !jstart + !jblocks))
    homes

let replay () =
  if !enabled then
    Sim.Prof.scope "jbd" (fun () ->
        recovery_rev := [];
        let jsb = read_whole (slot_block 0) in
        if u32 jsb 0 <> jsb_magic then begin
          log_line "jbd: no journal superblock; skipping replay";
          Ostd.Panic.panic "jbd: journal superblock missing (not formatted?)"
        end;
        let expected = ref (u32 jsb 4) in
        let slot = ref 1 in
        let live = ref true in
        let replayed = ref 0 in
        while !live && !slot + 2 < !jblocks do
          let desc = read_whole (slot_block !slot) in
          if u32 desc 0 <> desc_magic || u32 desc 4 <> !expected then
            (* End of the live region: stale or never-written slots. *)
            live := false
          else begin
            let n = u32 desc 8 in
            let shape_ok = n > 0 && n <= max_txn && !slot + n + 1 < !jblocks in
            let homes =
              if shape_ok then List.init n (fun i -> u32 desc (12 + (4 * i))) else []
            in
            if not (shape_ok && homes_valid homes) then begin
              Sim.Stats.incr "jbd.torn_discarded";
              log_line "jbd: seq=%d torn descriptor at slot %d; discarded" !expected !slot;
              live := false
            end
            else begin
              let contents = List.init n (fun i -> read_whole (slot_block (!slot + 1 + i))) in
              let cb = read_whole (slot_block (!slot + n + 1)) in
              if
                u32 cb 0 <> commit_magic
                || u32 cb 4 <> !expected
                || u32 cb 8 <> checksum ~txn_seq:!expected contents
              then begin
                Sim.Stats.incr "jbd.torn_discarded";
                log_line "jbd: seq=%d torn at slot %d; discarded" !expected !slot;
                live := false
              end
              else begin
                List.iter2 (fun home c -> write_whole home c) homes contents;
                replayed := !replayed + n;
                Sim.Stats.add "jbd.replayed" n;
                log_line "jbd: seq=%d replayed %d blocks from slot %d" !expected n !slot;
                expected := !expected + 1;
                slot := !slot + n + 2
              end
            end
          end
        done;
        (* Homes durable before the journal forgets the transactions. *)
        (match Block.sync () with
        | Ok () -> ()
        | Error e -> Ostd.Panic.failf ~errno:e "jbd: replay writeback failed");
        seq := !expected;
        next_slot := 1;
        Hashtbl.reset running;
        Hashtbl.reset committed;
        (match write_jsb () with
        | Ok () -> ()
        | Error e -> Ostd.Panic.failf ~errno:e "jbd: replay tail update failed");
        log_line "jbd: replay done, %d blocks restored, next seq=%d" !replayed !seq;
        Sim.Trace.emit Sim.Trace.Blk "jbd_replay" (fun () ->
            Printf.sprintf "restored=%d seq=%d" !replayed !seq))
