(* Crash-point replay sweep: the crash-consistency acceptance suite.

   For every write boundary k — every sector the device persists — the
   harness powers the device off after exactly k sectors, remounts the
   surviving image (replaying the ext2 journal), runs fsck, and
   byte-compares every file against the host-side oracle of what each
   successful fsync promised. With the journal on this must hold at
   EVERY boundary:
   - fsck finds no invariant violation;
   - no fsync'd byte is lost, no foreign byte appears;
   - the atomically-replaced config file is always one complete
     generation;
   - recovering the same image twice yields byte-identical logs.
   With the journal off, the same sweep must FIND corruption — the
   sensitivity proof that the oracle catches real damage. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let no_bad name (r : Apps.Crash.sweep_result) =
  (match r.Apps.Crash.bad_points with
  | [] -> ()
  | (k, msgs) :: _ ->
    Alcotest.failf "%s: %d bad crash points; first at k=%d: %s" name
      (List.length r.Apps.Crash.bad_points)
      k (String.concat " | " msgs));
  check_int
    (name ^ ": byte-identical recovery logs at every point")
    0
    (List.length r.Apps.Crash.nondet_points);
  check_int (name ^ ": no kernel panics") 0 r.Apps.Crash.spanics;
  check (name ^ ": swept real boundaries") true (r.Apps.Crash.swept > 0)

(* Exhaustive: every single write boundary of the fs workload. *)
let test_fs_sweep_exhaustive () =
  no_bad "fs/42" (Apps.Crash.sweep ~seed:42L ~journal:true ~workload:Apps.Crash.Fs ())

let test_fs_sweep_more_seeds () =
  List.iter
    (fun seed ->
      no_bad
        (Printf.sprintf "fs/%Ld" seed)
        (Apps.Crash.sweep ~stride:3 ~seed ~journal:true ~workload:Apps.Crash.Fs ()))
    [ 7L; 1234L ]

let test_sqlite_sweep () =
  no_bad "sqlite/42"
    (Apps.Crash.sweep ~stride:4 ~seed:42L ~journal:true ~workload:Apps.Crash.Sqlite ());
  no_bad "sqlite/7"
    (Apps.Crash.sweep ~stride:12 ~seed:7L ~journal:true ~workload:Apps.Crash.Sqlite ())

(* Sensitivity: with journaling off the same oracle must catch real
   corruption — otherwise the green sweeps above prove nothing. *)
let test_journal_off_fs_detects () =
  let r = Apps.Crash.sweep ~seed:42L ~journal:false ~workload:Apps.Crash.Fs () in
  check "journal-off fs sweep finds corruption" true (r.Apps.Crash.bad_points <> []);
  let fsck_hit =
    List.exists
      (fun (_, msgs) ->
        List.exists (fun m -> String.length m >= 5 && String.sub m 0 5 = "fsck:") msgs)
      r.Apps.Crash.bad_points
  in
  check "fsck itself flags the unjournaled image" true fsck_hit

let test_journal_off_sqlite_detects () =
  let r = Apps.Crash.sweep ~stride:5 ~seed:7L ~journal:false ~workload:Apps.Crash.Sqlite () in
  check "journal-off sqlite sweep finds corruption" true (r.Apps.Crash.bad_points <> [])

(* One mid-sweep point in detail: the replay actually restores
   transactions, the crash run actually used the barrier machinery, and
   three recoveries of the same image tell the same story. *)
let test_replay_and_stats () =
  let n = Apps.Crash.boundaries ~seed:42L ~journal:true ~workload:Apps.Crash.Fs in
  check "clean run has boundaries" true (n > 50);
  (* Stats of the clean run just performed: fsync-driven commits, flush
     barriers, and FUA commit records all flowed. *)
  check "jbd.commit counted" true (Sim.Stats.get "jbd.commit" > 0);
  check "blk.flush counted" true (Sim.Stats.get "blk.flush" > 0);
  check "blk.fua counted" true (Sim.Stats.get "blk.fua" > 0);
  let st =
    Apps.Crash.run ~seed:42L ~journal:true ~workload:Apps.Crash.Fs ~cut_after:(Some (n / 2))
  in
  check "power cut fired" true st.Apps.Crash.cut;
  let v1 = Apps.Crash.recover st in
  check "mount replayed committed transactions" true
    (Sim.Stats.get "jbd.replayed" > 0);
  check "replay log is non-empty" true (v1.Apps.Crash.recovery_log <> []);
  let v2 = Apps.Crash.recover st in
  let v3 = Apps.Crash.recover st in
  Alcotest.(check (list string))
    "recovery log identical on 2nd recovery" v1.Apps.Crash.recovery_log
    v2.Apps.Crash.recovery_log;
  Alcotest.(check (list string))
    "recovery log identical on 3rd recovery" v1.Apps.Crash.recovery_log
    v3.Apps.Crash.recovery_log;
  Alcotest.(check (list string)) "fsck clean after replay" [] v1.Apps.Crash.fsck;
  Alcotest.(check (list string)) "oracle clean after replay" [] v1.Apps.Crash.violations

(* The commit record's checksum must notice any single flipped bit in
   any content block: the high half of a word (bytes 4-7), bit 63 and
   the last word of a block included. Exhaustive over three random
   4 KiB blocks (98,304 flips). *)
let test_checksum_single_bit_flips () =
  let rng = Random.State.make [| 4 |] in
  let blocks =
    List.init 3 (fun _ -> Bytes.init 4096 (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  let sum () = Aster.Jbd.checksum ~txn_seq:17 blocks in
  let base = sum () in
  let flip blk byte bit =
    let b = List.nth blocks blk in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)))
  in
  let changed blk byte bit =
    flip blk byte bit;
    let c = sum () in
    flip blk byte bit;
    c <> base
  in
  check "byte 4 of a word" true (changed 0 4 0);
  check "byte 7 of a word" true (changed 1 (8 * 100 + 7) 5);
  check "bit 63 of a word" true (changed 2 (8 * 7 + 7) 7);
  check "bit 63 of the last word" true (changed 2 4095 7);
  check "bit 0 of the last word" true (changed 0 4088 0);
  List.iteri
    (fun blk b ->
      for byte = 0 to Bytes.length b - 1 do
        for bit = 0 to 7 do
          if not (changed blk byte bit) then
            Alcotest.failf "flipping bit %d of byte %d of block %d left the checksum at %x" bit
              byte blk base
        done
      done)
    blocks;
  check_int "flips restored the contents" base (sum ())

(* The seq seeding: a stale commit record must not vouch for the same
   contents under another transaction, including seqs 256 apart. *)
let test_checksum_seeded_by_seq () =
  let blocks = [ Bytes.make 4096 'a'; Bytes.make 4096 '\000' ] in
  List.iter
    (fun (a, b) ->
      check
        (Printf.sprintf "seq %d and seq %d check differently" a b)
        true
        (Aster.Jbd.checksum ~txn_seq:a blocks <> Aster.Jbd.checksum ~txn_seq:b blocks))
    [ (1, 2); (2, 258); (7, 7 + 256); (1000, 1001); (65536, 0) ];
  check "fits the record's u32 field" true
    (let c = Aster.Jbd.checksum ~txn_seq:3 blocks in
     c >= 0 && c <= 0xffffffff)

let () =
  Alcotest.run "crash"
    [
      ( "sweep",
        [
          Alcotest.test_case "fs_exhaustive_seed42" `Quick test_fs_sweep_exhaustive;
          Alcotest.test_case "fs_more_seeds" `Quick test_fs_sweep_more_seeds;
          Alcotest.test_case "sqlite_vacuum" `Quick test_sqlite_sweep;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "journal_off_fs" `Quick test_journal_off_fs_detects;
          Alcotest.test_case "journal_off_sqlite" `Quick test_journal_off_sqlite_detects;
        ] );
      ( "replay",
        [ Alcotest.test_case "replay_and_stats" `Quick test_replay_and_stats ] );
      ( "checksum",
        [
          Alcotest.test_case "single_bit_flips" `Quick test_checksum_single_bit_flips;
          Alcotest.test_case "seeded_by_seq" `Quick test_checksum_seeded_by_seq;
        ] );
    ]
