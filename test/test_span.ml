(* kspan tests: span lifecycle and segment recording, auto syscall
   spans, fsync critical paths showing the journal commit, reservoir
   bounds, the span_begin/span_end syscall surface, the writable
   /proc/kstat reset, ktrace span tagging, and the plane's zero-cost /
   determinism invariants. *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let boot ?(profile = Sim.Profile.asterinas) () =
  let k = Aster.Kernel.boot ~profile () in
  Apps.Libc.install_child_resolver ();
  k

(* Run a user program as init and return its exit code. *)
let run_user ?profile body =
  ignore (boot ?profile ());
  let result = ref None in
  let wrapped uapi =
    let code = body (Apps.Libc.make uapi) in
    result := Some code;
    code
  in
  ignore (Aster.Process.spawn_kernel_style ~name:"test" wrapped);
  Aster.Kernel.run ();
  match !result with
  | Some code -> code
  | None -> Alcotest.fail "user program did not finish"

(* Every test leaves the plane the way it found it (off): enable is
   sticky configuration that survives boot, like the ktrace mask. *)
let with_span ?(auto = false) f =
  Sim.Span.enable ();
  Sim.Span.set_auto auto;
  Fun.protect
    ~finally:(fun () ->
      Sim.Span.disable ();
      Sim.Span.set_auto false)
    f

(* --- Lifecycle and segments --- *)

let test_annotate_records_segments () =
  with_span (fun () ->
      let code =
        run_user (fun c ->
            Sim.Span.annotate_begin ~cls:"unit" ~name:"req";
            let fd = Apps.Libc.openf c "/tmp/span.txt" ~flags:0o101 ~mode:0o644 in
            ignore (Apps.Libc.write_str c ~fd "span payload");
            ignore (Apps.Libc.close c fd);
            Sim.Span.annotate_end ();
            0)
      in
      check_int "exit code" 0 code;
      check_int "one finished span" 1 (Sim.Span.finished_count ());
      check_int "no live spans leaked" 0 (Sim.Span.live_count ());
      Alcotest.(check (list string)) "class recorded" [ "unit" ] (Sim.Span.classes ());
      match Sim.Span.tail "unit" with
      | [ info ] ->
        check "span has wall time" true (Int64.compare info.Sim.Span.i_dur 0L > 0);
        check "span has segments" true (info.Sim.Span.i_segs <> []);
        check "critical path is non-empty" true (info.Sim.Span.i_path <> []);
        (* The critical path plus the residual must sum exactly to the
           span's wall time — that is the decomposition invariant. *)
        let path_sum =
          List.fold_left (fun a (_, c) -> Int64.add a c) 0L info.Sim.Span.i_path
        in
        check "path + residual = wall time" true
          (Int64.equal (Int64.add path_sum info.Sim.Span.i_residual) info.Sim.Span.i_dur);
        (* On-CPU user work must dominate this trivial request. *)
        check "cpu segments attributed" true
          (List.exists (fun (l, _) -> String.starts_with ~prefix:"cpu." l) info.Sim.Span.i_path)
      | other -> Alcotest.failf "expected 1 reservoir span, got %d" (List.length other))

let test_spans_do_not_nest () =
  with_span (fun () ->
      let inner = ref (-1) in
      let code =
        run_user (fun _c ->
            Sim.Span.annotate_begin ~cls:"outer" ~name:"a";
            (* A second boundary on the same task must not open a span:
               the outermost boundary owns the request. *)
            inner := Sim.Span.begin_ ~cls:"inner" ~name:"b";
            Sim.Clock.charge 1000;
            Sim.Span.annotate_end ();
            0)
      in
      check_int "exit code" 0 code;
      check_int "inner begin_ refused" 0 !inner;
      Alcotest.(check (list string)) "only the outer class" [ "outer" ] (Sim.Span.classes ()))

(* --- Auto syscall spans --- *)

let test_auto_syscall_spans () =
  with_span ~auto:true (fun () ->
      let code =
        run_user (fun c ->
            let fd = Apps.Libc.openf c "/tmp/auto.txt" ~flags:0o101 ~mode:0o644 in
            ignore (Apps.Libc.write_str c ~fd "x");
            ignore (Apps.Libc.close c fd);
            0)
      in
      check_int "exit code" 0 code;
      check "auto spans recorded" true (Sim.Span.finished_count () > 0);
      let classes = Sim.Span.classes () in
      check "per-syscall classes" true (List.mem "sys.open" classes);
      check "write class too" true (List.mem "sys.write" classes))

let test_fsync_span_shows_journal_commit () =
  (* An fsync on the journaled ext2 must carry the jbd commit (with its
     FUA barrier) as a named segment of the request's critical path. *)
  with_span ~auto:true (fun () ->
      let code =
        run_user (fun c ->
            let fd = Apps.Libc.openf c "/ext2/span.dat" ~flags:0o102 ~mode:0o644 in
            if fd < 0 then 1
            else begin
              let buf = Apps.Libc.ualloc c 4096 in
              ignore (Apps.Libc.pwrite c ~fd ~vaddr:buf ~len:4096 ~off:0);
              let rc = Apps.Libc.fsync c fd in
              ignore (Apps.Libc.close c fd);
              if rc = 0 then 0 else 2
            end)
      in
      check_int "exit code" 0 code;
      match Sim.Span.tail "sys.fsync" with
      | [] -> Alcotest.fail "no fsync span recorded"
      | info :: _ ->
        let seg_labels = List.map (fun (l, _, _) -> l) info.Sim.Span.i_segs in
        check "fsync span carries jbd.commit" true (List.mem "jbd.commit" seg_labels);
        check "and the block service leg" true
          (List.exists
             (fun l -> String.starts_with ~prefix:"blk." l)
             seg_labels))

(* --- Reservoir bounds --- *)

let test_reservoir_bounded () =
  with_span (fun () ->
      let n = 200 in
      let code =
        run_user (fun _c ->
            for i = 1 to n do
              Sim.Span.annotate_begin ~cls:"burst" ~name:"req";
              (* Varying durations so the reservoir must actually rank. *)
              Sim.Clock.charge (100 + (i * 7 mod 997));
              Sim.Span.annotate_end ()
            done;
            0)
      in
      check_int "exit code" 0 code;
      check_int "every span aggregated" n (Sim.Span.class_count "burst");
      let kept = Sim.Span.tail "burst" in
      check "reservoir keeps at most 64" true (List.length kept <= 64);
      check "reservoir is not empty" true (kept <> []);
      (* Slowest-first, and the kept spans are genuinely the tail. *)
      let durs = List.map (fun i -> i.Sim.Span.i_dur) kept in
      let sorted_desc = List.sort (fun a b -> Int64.compare b a) durs in
      check "tail is sorted slowest-first" true (durs = sorted_desc);
      match Sim.Span.class_p99 "burst" with
      | None -> Alcotest.fail "no p99 span"
      | Some p99 ->
        check "p99 span has wall time" true (Int64.compare p99.Sim.Span.i_dur 0L > 0))

(* --- The syscall surface --- *)

let test_span_syscalls () =
  with_span (fun () ->
      let id = ref 0 in
      let bad_cls = ref 0 in
      let bad_id = ref 0 in
      let code =
        run_user (fun c ->
            id := Apps.Libc.span_begin c ~cls:"api" ~name:"call";
            Sim.Clock.charge 2000;
            let rc = Apps.Libc.span_end c !id in
            bad_cls := Apps.Libc.span_begin c ~cls:"" ~name:"x";
            bad_id := Apps.Libc.span_end c (-3);
            rc)
      in
      check_int "span_end ok" 0 code;
      check "span_begin returned an id" true (!id > 0);
      check_int "empty class is EINVAL" (-Aster.Errno.einval) !bad_cls;
      check_int "negative id is EINVAL" (-Aster.Errno.einval) !bad_id;
      check_int "the span finished" 1 (Sim.Span.class_count "api"))

let test_span_disabled_is_inert () =
  Sim.Span.disable ();
  let id = ref (-1) in
  let code =
    run_user (fun c ->
        id := Apps.Libc.span_begin c ~cls:"off" ~name:"x";
        Apps.Libc.span_end c !id)
  in
  check_int "exit code" 0 code;
  check_int "disabled begin returns 0" 0 !id;
  check_int "nothing recorded" 0 (Sim.Span.finished_count ())

(* --- Writable /proc/kstat (satellite: echo reset > /proc/kstat) --- *)

let test_proc_kstat_reset () =
  let wrote = ref 0 in
  let bad = ref 0 in
  let before = ref 0 in
  let after = ref (-1) in
  let code =
    run_user (fun c ->
        (* Force block traffic so blk.doorbell is provably nonzero,
           then reset through procfs and sample it again immediately
           (nothing between the write and the sample touches a disk). *)
        let fd = Apps.Libc.openf c "/ext2/k.txt" ~flags:0o102 ~mode:0o644 in
        ignore (Apps.Libc.write_str c ~fd "counters");
        ignore (Apps.Libc.fsync c fd);
        ignore (Apps.Libc.close c fd);
        let p = Apps.Libc.openf c "/proc/kstat" ~flags:0o1 ~mode:0 in
        if p < 0 then 1
        else begin
          bad := Apps.Libc.write_str c ~fd:p "no-such-command";
          before := Sim.Stats.get "blk.doorbell";
          wrote := Apps.Libc.write_str c ~fd:p "reset\n";
          after := Sim.Stats.get "blk.doorbell";
          ignore (Apps.Libc.close c p);
          0
        end)
  in
  check_int "exit code" 0 code;
  check_int "malformed command is EINVAL" (-Aster.Errno.einval) !bad;
  check "valid reset accepted" true (!wrote > 0);
  (* [before] is sampled after the malformed write: EINVAL must leave
     the counters untouched (validate-before-apply). *)
  check "malformed write zeroed nothing" true (!before > 0);
  check_int "reset zeroed the counters" 0 !after

(* --- ktrace records carry the active span id --- *)

let test_ktrace_records_tagged_with_span () =
  Sim.Trace.reset ();
  with_span ~auto:true (fun () ->
      Sim.Trace.set_capacity 65536;
      Sim.Trace.enable Sim.Trace.Syscall;
      let code =
        run_user (fun c ->
            let fd = Apps.Libc.openf c "/tmp/tagged.txt" ~flags:0o101 ~mode:0o644 in
            ignore (Apps.Libc.write_str c ~fd "y");
            ignore (Apps.Libc.close c fd);
            0)
      in
      check_int "exit code" 0 code;
      let is_tagged r =
        let args = r.Sim.Trace.args in
        let tag = "span=" in
        let tl = String.length tag in
        let al = String.length args in
        let rec scan i = i + tl <= al && (String.sub args i tl = tag || scan (i + 1)) in
        scan 0
      in
      let tagged = List.length (List.filter is_tagged (Sim.Trace.records ())) in
      Sim.Trace.reset ();
      check "syscall records carry span ids" true (tagged > 0))

(* --- Zero cost and determinism --- *)

let bw_tcp_row () = Apps.Lmbench.find "bw_tcp 64k (virtio)"

let test_span_on_same_virtual_time () =
  (* Span tracking must never charge virtual cycles or consume
     randomness: the same run, spans off and spans on, finishes at the
     same virtual timestamp. *)
  Sim.Span.disable ();
  ignore ((bw_tcp_row ()).Apps.Lmbench.run Sim.Profile.asterinas);
  let off_end = Sim.Clock.now () in
  let nspans =
    with_span ~auto:true (fun () ->
        ignore ((bw_tcp_row ()).Apps.Lmbench.run Sim.Profile.asterinas);
        Sim.Span.finished_count ())
  in
  let on_end = Sim.Clock.now () in
  check "span tracking is free in virtual time" true (Int64.equal off_end on_end);
  check "and spans actually recorded" true (nspans > 0)

let test_same_seed_identical_span_reports () =
  (* Same-seed chaos runs with spans on: byte-identical ktrace output
     (span tags included) and byte-identical /proc/kspan rendering. *)
  let one () =
    Sim.Trace.reset ();
    Sim.Trace.set_capacity 4096;
    List.iter Sim.Trace.enable Sim.Trace.all_categories;
    with_span ~auto:true (fun () ->
        let o = Apps.Chaos.run ~seed:7L () in
        let trace = Sim.Trace.render () in
        let report = Sim.Span.render_proc () in
        let finished = Sim.Span.finished_count () in
        Sim.Trace.reset ();
        (o.Apps.Chaos.completed, trace, report, finished))
  in
  let c1, t1, r1, f1 = one () in
  let c2, t2, r2, f2 = one () in
  check "spans were recorded" true (f1 > 0);
  check_int "same workload outcome" c1 c2;
  check_int "same span population" f1 f2;
  check "byte-identical traces under spans" true (String.equal t1 t2);
  check "byte-identical span reports" true (String.equal r1 r2)

let test_critical_path_attribution_bound () =
  (* The acceptance bar: tail spans must attribute at least 95% of
     their wall time to named segments. *)
  with_span ~auto:true (fun () ->
      let code =
        run_user (fun c ->
            let fd = Apps.Libc.openf c "/ext2/attr.dat" ~flags:0o102 ~mode:0o644 in
            let buf = Apps.Libc.ualloc c 4096 in
            for i = 0 to 63 do
              ignore (Apps.Libc.pwrite c ~fd ~vaddr:buf ~len:4096 ~off:(i * 4096))
            done;
            ignore (Apps.Libc.fsync c fd);
            ignore (Apps.Libc.close c fd);
            0)
      in
      check_int "exit code" 0 code;
      check "spans recorded" true (Sim.Span.finished_count () > 0);
      let worst = Sim.Span.max_residual_frac () in
      if worst >= 0.05 then
        Alcotest.failf "worst unattributed fraction %.4f >= 0.05" worst)

(* kspan watches the clock through an observer it installs on enable
   and removes on disable. With kspan and kprof both off no observer is
   installed, so none is called; a span opened after enabling kspan
   mid-run sees only the cycles charged from then on. *)
let test_enable_mid_run () =
  Sim.Span.disable ();
  Sim.Prof.disable ();
  let off = ref (-1) and on = ref (-1) and t_on = ref 0L in
  let code =
    run_user (fun _c ->
        off := Sim.Clock.observers ();
        Sim.Clock.charge 100_000;
        t_on := Sim.Clock.now ();
        Sim.Span.enable ();
        on := Sim.Clock.observers ();
        Sim.Span.annotate_begin ~cls:"mid" ~name:"req";
        Sim.Clock.charge 7_000;
        Sim.Span.annotate_end ();
        Sim.Span.disable ();
        0)
  in
  check_int "exit code" 0 code;
  check_int "no observer with kspan and kprof off" 0 !off;
  check_int "enable installs one observer" 1 !on;
  check_int "disable removes it" 0 (Sim.Clock.observers ());
  match Sim.Span.tail "mid" with
  | [ info ] ->
    check "span begins at the enable point" true (Int64.equal info.Sim.Span.i_begin !t_on);
    Alcotest.(check int64) "wall time is only the post-enable charge" 7_000L info.Sim.Span.i_dur;
    let cpu =
      List.fold_left
        (fun a (l, c) -> if String.starts_with ~prefix:"cpu." l then Int64.add a c else a)
        0L info.Sim.Span.i_path
    in
    Alcotest.(check int64) "all of it attributed on-CPU" 7_000L cpu
  | other -> Alcotest.failf "expected 1 reservoir span, got %d" (List.length other)

let () =
  Alcotest.run "span"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "annotate_records_segments" `Quick test_annotate_records_segments;
          Alcotest.test_case "spans_do_not_nest" `Quick test_spans_do_not_nest;
          Alcotest.test_case "auto_syscall_spans" `Quick test_auto_syscall_spans;
          Alcotest.test_case "fsync_shows_jbd_commit" `Quick test_fsync_span_shows_journal_commit;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "reservoir_bounded" `Quick test_reservoir_bounded;
          Alcotest.test_case "attribution_bound" `Quick test_critical_path_attribution_bound;
        ] );
      ( "surface",
        [
          Alcotest.test_case "span_syscalls" `Quick test_span_syscalls;
          Alcotest.test_case "disabled_is_inert" `Quick test_span_disabled_is_inert;
          Alcotest.test_case "proc_kstat_reset" `Quick test_proc_kstat_reset;
          Alcotest.test_case "ktrace_span_tags" `Quick test_ktrace_records_tagged_with_span;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "span_on_same_virtual_time" `Quick test_span_on_same_virtual_time;
          Alcotest.test_case "same_seed_identical_reports" `Quick
            test_same_seed_identical_span_reports;
          Alcotest.test_case "enable_mid_run" `Quick test_enable_mid_run;
        ] );
    ]
