(* ktrace tests: ring-buffer overflow semantics, default-off zero cost,
   histogram percentile accuracy, and same-seed trace determinism under
   the chaos fault schedule. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_float msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

let fresh () =
  Sim.Trace.reset ();
  Sim.Hist.reset ()

(* --- Ring buffer --- *)

let test_ring_overflow_keeps_newest () =
  fresh ();
  Sim.Trace.set_capacity 16;
  Sim.Trace.enable Sim.Trace.Syscall;
  for i = 1 to 100 do
    Sim.Trace.emit Sim.Trace.Syscall "ev" (fun () -> string_of_int i)
  done;
  check_int "ring holds capacity" 16 (Sim.Trace.length ());
  check_int "drops counted" 84 (Sim.Trace.dropped ());
  check_int "total counts everything" 100 (Sim.Trace.total ());
  let args = List.map (fun r -> r.Sim.Trace.args) (Sim.Trace.records ()) in
  Alcotest.(check (list string))
    "newest 16 survive, in order"
    (List.init 16 (fun i -> string_of_int (85 + i)))
    args

let test_default_off_zero_entries () =
  fresh ();
  let evaluated = ref false in
  (* All categories default-off after reset: no record, and the args
     closure must never run. *)
  List.iter
    (fun cat ->
      Sim.Trace.emit cat "ev" (fun () ->
          evaluated := true;
          "boom"))
    Sim.Trace.all_categories;
  check_int "no entries with everything disabled" 0 (Sim.Trace.length ());
  check_int "nothing dropped either" 0 (Sim.Trace.dropped ());
  check "args thunk never evaluated" false !evaluated

let test_mask_is_per_category () =
  fresh ();
  Sim.Trace.enable Sim.Trace.Blk;
  Sim.Trace.emit Sim.Trace.Blk "on" (fun () -> "");
  Sim.Trace.emit Sim.Trace.Net "off" (fun () -> "");
  check_int "only the enabled category records" 1 (Sim.Trace.length ());
  Sim.Trace.disable Sim.Trace.Blk;
  Sim.Trace.emit Sim.Trace.Blk "now-off" (fun () -> "");
  check_int "disable stops recording" 1 (Sim.Trace.length ())

let test_clear_keeps_mask_reset_clears_it () =
  fresh ();
  Sim.Trace.enable Sim.Trace.Irq;
  Sim.Trace.emit Sim.Trace.Irq "ev" (fun () -> "");
  Sim.Trace.clear ();
  check_int "clear empties the ring" 0 (Sim.Trace.length ());
  check "clear keeps the mask" true (Sim.Trace.enabled Sim.Trace.Irq);
  Sim.Trace.reset ();
  check "reset disables everything" false (Sim.Trace.enabled Sim.Trace.Irq)

(* --- Histograms --- *)

let test_hist_constant_exact () =
  let h = Sim.Hist.create () in
  for _ = 1 to 1000 do
    Sim.Hist.record h 42.5
  done;
  List.iter
    (fun p ->
      check_float (Printf.sprintf "p%.0f exact on constant" p) 42.5 (Sim.Hist.percentile_exn h p))
    [ 1.; 50.; 90.; 99.; 100. ];
  check_float "max exact" 42.5 (Sim.Hist.max_value h);
  check_float "mean exact" 42.5 (Sim.Hist.mean h)

let test_hist_two_point_exact () =
  (* 90 low + 10 high: p50 must report the low value, p99 the high one.
     Exact because each cluster occupies its own bucket. *)
  let h = Sim.Hist.create () in
  for _ = 1 to 90 do
    Sim.Hist.record h 1.0
  done;
  for _ = 1 to 10 do
    Sim.Hist.record h 1000.
  done;
  check_float "p50 is the low point" 1.0 (Sim.Hist.percentile_exn h 50.);
  check_float "p90 is the low point" 1.0 (Sim.Hist.percentile_exn h 90.);
  check_float "p99 is the high point" 1000. (Sim.Hist.percentile_exn h 99.);
  check_float "p100 is the max" 1000. (Sim.Hist.percentile_exn h 100.)

let test_hist_uniform_bounded_error () =
  (* Uniform 1..10000: every percentile estimate must fall within one
     sub-bucket (1/16 octave, < 4.4% relative) of the true value. *)
  let h = Sim.Hist.create () in
  let n = 10000 in
  for i = 1 to n do
    Sim.Hist.record h (float_of_int i)
  done;
  List.iter
    (fun p ->
      let true_v = p /. 100. *. float_of_int n in
      let est = Sim.Hist.percentile_exn h p in
      let rel = abs_float (est -. true_v) /. true_v in
      if rel > 1. /. 16. then
        Alcotest.failf "p%.0f: estimate %.1f vs true %.1f (rel err %.3f > 1/16)" p est true_v rel)
    [ 10.; 25.; 50.; 75.; 90.; 99. ];
  check_float "count" (float_of_int n) (float_of_int (Sim.Hist.count h))

let test_hist_registry () =
  fresh ();
  Sim.Hist.observe "syscall.read" 1.0;
  Sim.Hist.observe "syscall.read" 2.0;
  Sim.Hist.observe "syscall.write" 5.0;
  Sim.Hist.observe "blk.bio" 7.0;
  check_int "find sees both observations" 2
    (match Sim.Hist.find "syscall.read" with Some h -> Sim.Hist.count h | None -> -1);
  check_int "by_prefix filters" 2 (List.length (Sim.Hist.by_prefix "syscall."));
  check_int "all is everything" 3 (List.length (Sim.Hist.all ()));
  Sim.Hist.reset ();
  check "reset empties the registry" true (Sim.Hist.all () = [])

(* Strace records each exit under a histogram site resolved once per
   registry epoch: the syscall.<name> counts must follow Sim.Hist.reset
   and a reboot rather than land in a dropped histogram, and the
   per-nr counts must always sum to the "syscall" total. *)
let run_getpids ?(reset_after = 0) n =
  ignore (Aster.Kernel.boot ~profile:Sim.Profile.asterinas ());
  ignore
    (Aster.Process.spawn_kernel_style ~name:"hist-sites" (fun uapi ->
         let c = Apps.Libc.make uapi in
         for i = 1 to n do
           ignore (Apps.Libc.getpid c);
           if i = reset_after then Sim.Hist.reset ()
         done;
         0));
  Aster.Kernel.run ()

let hist_count name = match Sim.Hist.find name with Some h -> Sim.Hist.count h | None -> 0

let check_per_nr_sum () =
  let per_nr = List.fold_left (fun a (_, h) -> a + Sim.Hist.count h) 0 (Sim.Hist.by_prefix "syscall.") in
  check_int "per-nr counts sum to the syscall total" (hist_count "syscall") per_nr

let test_syscall_hists_across_resets () =
  run_getpids 5;
  check_int "first run" 5 (hist_count "syscall.getpid");
  check_per_nr_sum ();
  run_getpids 3;
  check_int "after a reboot only the second run counts" 3 (hist_count "syscall.getpid");
  check_per_nr_sum ();
  run_getpids ~reset_after:2 6;
  check_int "a mid-run reset keeps only the later calls" 4 (hist_count "syscall.getpid");
  check_per_nr_sum ();
  Sim.Hist.reset ();
  check_int "reset empties it" 0 (hist_count "syscall.getpid")

(* --- Determinism: same-seed chaos runs yield byte-identical traces --- *)

let chaos_trace seed =
  Sim.Trace.reset ();
  Sim.Trace.set_capacity 4096;
  List.iter Sim.Trace.enable Sim.Trace.all_categories;
  let o = Apps.Chaos.run ~seed () in
  let trace = Sim.Trace.render () in
  let drops = Sim.Trace.dropped () in
  Sim.Trace.reset ();
  (o.Apps.Chaos.completed, trace, drops)

let test_same_seed_identical_traces () =
  let c1, t1, d1 = chaos_trace 7L in
  let c2, t2, d2 = chaos_trace 7L in
  check "trace is non-empty" true (String.length t1 > 0);
  check_int "same workload outcome" c1 c2;
  check_int "same drop count" d1 d2;
  check "byte-identical traces" true (String.equal t1 t2)

let test_traced_run_same_virtual_time () =
  (* Tracing must not charge virtual cycles: the same chaos run, traced
     and untraced, finishes at the same virtual timestamp. *)
  Sim.Trace.reset ();
  ignore (Apps.Chaos.run ~seed:11L ());
  let untraced_end = Sim.Clock.now () in
  List.iter Sim.Trace.enable Sim.Trace.all_categories;
  ignore (Apps.Chaos.run ~seed:11L ());
  let traced_end = Sim.Clock.now () in
  let traced_total = Sim.Trace.total () in
  Sim.Trace.reset ();
  check "tracing is free in virtual time" true (Int64.equal untraced_end traced_end);
  check "and the trace actually recorded" true (traced_total > 0)

(* --- Batched TX: one tracepoint per burst, and tracing stays free ---

   The plug/flush pipeline emits its Net "tx" record at flush time with
   burst-shaped args ("nseg=... bytes=..."), so a traced transfer shows
   one record per descriptor chain — not one per segment. The per-burst
   count must agree exactly with the net.burst stat, and enabling the
   tracepoints must not move the virtual clock. *)

let bw_tcp_row () = Apps.Lmbench.find "bw_tcp 64k (virtio)"

let is_tx_burst r =
  r.Sim.Trace.cat = Sim.Trace.Net
  && String.equal r.Sim.Trace.name "tx"
  && String.length r.Sim.Trace.args >= 5
  && String.equal (String.sub r.Sim.Trace.args 0 5) "nseg="

let test_net_tx_trace_once_per_burst () =
  Sim.Trace.reset ();
  Sim.Trace.set_capacity 262144;
  Sim.Trace.enable Sim.Trace.Net;
  ignore ((bw_tcp_row ()).Apps.Lmbench.run Sim.Profile.asterinas);
  let tx_burst_recs = List.length (List.filter is_tx_burst (Sim.Trace.records ())) in
  let bursts = Sim.Stats.get "net.burst" in
  let queued = Sim.Stats.get "net.tx_queued" in
  let drops = Sim.Trace.dropped () in
  Sim.Trace.reset ();
  check_int "nothing fell out of the ring" 0 drops;
  check "bursts were submitted" true (bursts > 0);
  check_int "exactly one tx tracepoint per burst" bursts tx_burst_recs;
  check "bursts amortise the queued segments" true (bursts < queued)

let test_net_traced_run_same_virtual_time () =
  Sim.Trace.reset ();
  ignore ((bw_tcp_row ()).Apps.Lmbench.run Sim.Profile.asterinas);
  let untraced_end = Sim.Clock.now () in
  Sim.Trace.set_capacity 262144;
  List.iter Sim.Trace.enable Sim.Trace.all_categories;
  ignore ((bw_tcp_row ()).Apps.Lmbench.run Sim.Profile.asterinas);
  let traced_end = Sim.Clock.now () in
  let total = Sim.Trace.total () in
  Sim.Trace.reset ();
  check "tracing the batched pipeline is free in virtual time" true
    (Int64.equal untraced_end traced_end);
  check "and the trace actually recorded" true (total > 0)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow_keeps_newest" `Quick test_ring_overflow_keeps_newest;
          Alcotest.test_case "default_off_zero_entries" `Quick test_default_off_zero_entries;
          Alcotest.test_case "mask_per_category" `Quick test_mask_is_per_category;
          Alcotest.test_case "clear_vs_reset" `Quick test_clear_keeps_mask_reset_clears_it;
        ] );
      ( "hist",
        [
          Alcotest.test_case "constant_exact" `Quick test_hist_constant_exact;
          Alcotest.test_case "two_point_exact" `Quick test_hist_two_point_exact;
          Alcotest.test_case "uniform_bounded_error" `Quick test_hist_uniform_bounded_error;
          Alcotest.test_case "registry" `Quick test_hist_registry;
          Alcotest.test_case "syscall_hists_across_resets" `Quick test_syscall_hists_across_resets;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same_seed_identical_traces" `Quick test_same_seed_identical_traces;
          Alcotest.test_case "traced_run_same_virtual_time" `Quick
            test_traced_run_same_virtual_time;
        ] );
      ( "net-batch",
        [
          Alcotest.test_case "tx_trace_once_per_burst" `Quick test_net_tx_trace_once_per_burst;
          Alcotest.test_case "traced_bw_tcp_same_virtual_time" `Quick
            test_net_traced_run_same_virtual_time;
        ] );
    ]
