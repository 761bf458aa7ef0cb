(* db-txn: seeded transactions on Mini_sqlite at /ext2 with the ext2
   journal on, from one caller in a closed loop (SQLite is embedded, so
   one waiting caller is the honest model).

   Why: this workload does most of the ext2, page_cache, jbd, block and
   virtio_blk work, including the fsync barrier and FUA path, and no
   network work. The database is preloaded well past the engine's
   48-page user cache, so reads reach the ext2 page cache and below.
   Writes run beside reads, and its host cost is the one seen growing
   superlinearly with database size. *)

open Common
module S = Apps.Mini_sqlite
module IM = Map.Make (Int)

type action =
  | Lookup of int * string option (* key, expected row *)
  | Put of int * string (* insert or replace *)
  | Update of int * int * int (* lo, hi, expected rows touched *)
  | Delete of int * int * int
  | Count of int * int * int

type inputs = {
  preload : (int * string) array;
  light : action list array;
  heavy : action list array;
}

(* The deterministic row rewrite [update_range] applies. *)
let bump v =
  let i = String.index alnum v.[0] in
  String.mapi (fun j ch -> if j = 0 then alnum.[(i + 1) mod String.length alnum] else ch) v

let range_rows m lo hi =
  Seq.fold_left (fun n _ -> n + 1) 0
    (Seq.take_while (fun (k, _) -> k <= hi) (IM.to_seq_from lo m))

let gen ~seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let rows = pi "preload_rows" in
  let space = 4 * rows in
  let value () = random_string rng (40 + Sim.Rng.int rng 61) in
  let preload = Array.init rows (fun i -> (4 * i, value ())) in
  let m = ref (Array.fold_left (fun m (k, v) -> IM.add k v m) IM.empty preload) in
  let txn i ~update ~delete =
    let acts = ref [] in
    let act a = acts := a :: !acts in
    for _ = 1 to 3 do
      let k = if Sim.Rng.int rng 4 < 3 then 4 * Sim.Rng.int rng rows else Sim.Rng.int rng space in
      act (Lookup (k, IM.find_opt k !m))
    done;
    let put k =
      let v = value () in
      m := IM.add k v !m;
      act (Put (k, v))
    in
    put (Sim.Rng.int rng space);
    put (Sim.Rng.int rng space);
    put (4 * Sim.Rng.int rng rows);
    if update then begin
      let lo = Sim.Rng.int rng (space - 40) in
      let hi = lo + 40 in
      let hits = range_rows !m lo hi in
      m := IM.mapi (fun k v -> if k >= lo && k <= hi then bump v else v) !m;
      act (Update (lo, hi, hits))
    end;
    if delete then begin
      let lo = Sim.Rng.int rng (space - 8) in
      let hi = lo + 8 in
      act (Delete (lo, hi, range_rows !m lo hi));
      m := IM.filter (fun k _ -> k < lo || k > hi) !m
    end;
    if i mod 8 = 7 then begin
      let lo = Sim.Rng.int rng (space - 400) in
      act (Count (lo, lo + 400, range_rows !m lo (lo + 400)))
    end;
    List.rev !acts
  in
  (* Exactly 10% of a phase's transactions run a range update and 5% a
     range delete, in seeded order, so the mix does not drift between
     seeds. *)
  let deck n pct =
    let d = Array.init n (fun i -> i * 100 / n < pct) in
    Sim.Rng.shuffle rng d;
    d
  in
  let phase n first =
    let upd = deck n 10 and del = deck n 5 in
    Array.init n (fun i -> txn (first + i) ~update:upd.(i) ~delete:del.(i))
  in
  let light = phase (pi "n_light") 0 in
  let heavy = phase (pi "n_heavy") (pi "n_light") in
  { preload; light; heavy }

(* One transaction; false on any wrong result or failed barrier. *)
let run_txn db acts =
  let table = "t" in
  let ok = ref true and bytes = ref 0 in
  let check what got want =
    if got <> want then begin
      mismatch (Printf.sprintf "%s: got %d, expected %d" what got want);
      ok := false
    end
  in
  S.begin_txn db;
  List.iter
    (function
      | Lookup (k, want) ->
        let got = S.lookup db ~table (S.K_int k) in
        if got <> want then begin
          mismatch (Printf.sprintf "lookup %d: wrong row" k);
          ok := false
        end
        else bytes := !bytes + Option.fold ~none:0 ~some:String.length got
      | Put (k, v) -> S.replace db ~table (S.K_int k) v
      | Update (lo, hi, n) ->
        check "update_range" (S.update_range db ~table ~lo:(S.K_int lo) ~hi:(S.K_int hi) ~f:bump) n
      | Delete (lo, hi, n) ->
        check "delete_range" (S.delete_range db ~table ~lo:(S.K_int lo) ~hi:(S.K_int hi)) n
      | Count (lo, hi, n) ->
        check "range_count" (S.range_count db ~table ~lo:(S.K_int lo) ~hi:(S.K_int hi)) n)
    acts;
  if not (S.commit_durable db) then begin
    mismatch "commit_durable reported a failed barrier";
    ok := false
  end;
  (!ok, !bytes)

type phase = { lat_us : float array; mutable failed : int; mutable bytes : int; mutable v_s : float }

(* Host time of every [lap_txns] transactions, for the per-step medians,
   with the reference time around it (Calib). *)
let lap_txns = 200

let laps = ref []

let lap_start = ref 0.

let ref_before = ref 0.

let start_laps () =
  laps := [];
  ref_before := Calib.sample ();
  lap_start := host_s ()

let lap () =
  let d = host_s () -. !lap_start in
  let ref_after = Calib.sample () in
  laps := (d, (!ref_before +. ref_after) /. 2.) :: !laps;
  ref_before := ref_after;
  lap_start := host_s ()

let phase n = { lat_us = Array.make n infinity; failed = 0; bytes = 0; v_s = 0. }

(* Closed loop: the next transaction starts when the last one returned
   (after [think_us] of idle time in the light phase). *)
let run_phase c db txns ph ~think_us =
  let v0 = Sim.Clock.now () in
  Array.iteri
    (fun i acts ->
      let t0 = Sim.Clock.now () in
      Sim.Span.annotate_begin ~cls:"txn" ~name:"txn";
      let ok, bytes = run_txn db acts in
      Sim.Span.annotate_end ();
      if ok then begin
        ph.lat_us.(i) <- us_of_cycles (Int64.sub (Sim.Clock.now ()) t0);
        ph.bytes <- ph.bytes + bytes
      end
      else ph.failed <- ph.failed + 1;
      if i mod 32 = 31 then Hostm.tick ();
      if (i + 1) mod lap_txns = 0 || i + 1 = Array.length txns then lap ();
      if think_us > 0. then ignore (Apps.Libc.nanosleep_us c think_us))
    txns;
  ph.v_s <- us_of_cycles (Int64.sub (Sim.Clock.now ()) v0) /. 1e6

let rep ~seed =
  let t0 = host_s () in
  let inp = gen ~seed in
  ignore (Apps.Runner.boot ~profile:Sim.Profile.asterinas);
  let light = phase (Array.length inp.light) and heavy = phase (Array.length inp.heavy) in
  let setup_s = ref 0. and h0 = ref None and h1 = ref None and layers = ref [] in
  let v0 = ref 0L and v1 = ref 0L and done_ = ref false in
  Apps.Runner.spawn ~name:"db-txn" (fun c ->
      let db = S.open_db c "/ext2/bench.db" in
      S.begin_txn db;
      S.create_table db "t";
      let chunk = pi "preload_chunk" in
      Array.iteri
        (fun i (k, v) ->
          if i mod chunk = 0 then S.begin_txn db;
          S.insert db ~table:"t" (S.K_int k) v;
          if i mod chunk = chunk - 1 && not (S.commit_durable db) then mismatch "preload commit failed")
        inp.preload;
      if not (S.commit_durable db) then mismatch "preload commit failed";
      setup_s := host_s () -. t0;
      h0 := Some (Hostm.snap ());
      start_laps ();
      v0 := Sim.Clock.now ();
      run_phase c db inp.light light ~think_us:(pf "think_us");
      Layers.window_start { Layers.server = "db-txn/"; hstack = None; endpoint = None };
      run_phase c db inp.heavy heavy ~think_us:0.;
      layers := Layers.window_end ~ops:(Array.length inp.heavy) ~body_bytes:heavy.bytes;
      v1 := Sim.Clock.now ();
      h1 := Some (Hostm.snap ());
      (* Whole-database checks close the run. *)
      if S.integrity_check db <= 0 then mismatch "integrity_check visited no pages";
      S.close_db db;
      (match Aster.Fsck.check () with
      | [] -> ()
      | errs -> List.iter (fun e -> mismatch ("fsck: " ^ e)) errs);
      done_ := true;
      0);
  Aster.Kernel.run_until (fun () -> !done_);
  if not !done_ then mismatch "db-txn process did not finish";
  let get = function Some h -> h | None -> Hostm.snap () in
  let hs = sorted heavy.lat_us in
  let n = Array.length inp.heavy in
  let tps = ratio (fi (n - heavy.failed)) heavy.v_s in
  let v =
    Report.
      [ (* one caller: its committed rate is the rate it sustains *)
        vm "v_slo_rps" tps "req/s" n;
        vm "v_tps" tps "ops/s" n;
        vm "v_lat_p50_us" (pct hs 50.) "us" n;
        vm "v_lat_p99_us" (pct hs 99.) "us" n;
        vm "v_lat_p99_us_light" (pct (sorted light.lat_us) 99.) "us" (Array.length inp.light);
        vm "v_goodput_mb_s" (ratio (fi heavy.bytes) heavy.v_s /. 1e6) "MB/s" n ]
  in
  let attempted = Array.length inp.light + n in
  let failed = light.failed + heavy.failed in
  {
    Report.setup_s = !setup_s;
    host = Hostm.diff (get !h0) (get !h1);
    laps = Array.of_list (List.rev !laps);
    ops = attempted - failed;
    attempted;
    failed;
    virtual_s = us_of_cycles (Int64.sub !v1 !v0) /. 1e6;
    v;
    vkey =
      Digest.string
        (Marshal.to_string (!v1, light.lat_us, heavy.lat_us, List.map (fun m -> m.Report.value) v) []);
    gen_lag_us_max = 0.;
    backlog_end = 0;
    layers = !layers;
    steps =
      List.map
        (fun (label, ph) ->
          let s = sorted ph.lat_us in
          Printf.sprintf "%-9s txns=%5d failed=%d p50=%9.1fus p99=%9.1fus virtual=%.4fs" label
            (Array.length s) ph.failed (pct s 50.) (pct s 99.) ph.v_s)
        [ ("light", light); ("heavy", heavy) ];
  }
