(* kprof tests: scope-stack attribution math, exact cycle conservation
   over a full workload, determinism and zero-cost of profiled runs, and
   the Linux-ABI accounting surface (getrusage/times, /proc/<pid>/stat,
   lock_stat contention counters). *)

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_i64 = Alcotest.(check int64)

(* --- Attribution unit tests (no kernel, just the clock) --- *)

let test_scope_attribution () =
  Sim.Prof.reset ();
  Sim.Clock.reset ();
  Sim.Prof.enable ();
  Sim.Prof.switch_to "t/1";
  Sim.Clock.charge 100;
  Sim.Prof.scope "a" (fun () ->
      Sim.Clock.charge 50;
      Sim.Prof.scope "b" (fun () -> Sim.Clock.charge 25));
  Sim.Clock.charge 10;
  Alcotest.(check (list (pair string int64)))
    "folded keys carry exact cycle counts"
    [ ("t/1", 110L); ("t/1;a", 50L); ("t/1;a;b", 25L) ]
    (Sim.Prof.folded ());
  check_i64 "elapsed" 185L (Sim.Prof.elapsed ());
  check "conserved" true (Sim.Prof.conserved ());
  Sim.Prof.reset ()

let test_scope_pops_on_exception () =
  Sim.Prof.reset ();
  Sim.Clock.reset ();
  Sim.Prof.enable ();
  Sim.Prof.switch_to "t/1";
  (try
     Sim.Prof.scope "boom" (fun () ->
         Sim.Clock.charge 5;
         failwith "x")
   with Failure _ -> ());
  Sim.Clock.charge 7;
  Alcotest.(check (list (pair string int64)))
    "the raising scope was popped"
    [ ("t/1", 7L); ("t/1;boom", 5L) ]
    (Sim.Prof.folded ());
  Sim.Prof.reset ()

let test_disabled_is_transparent () =
  Sim.Prof.reset ();
  let ran = ref false in
  let v =
    Sim.Prof.scope "a" (fun () ->
        ran := true;
        42)
  in
  check_int "value passes through" 42 v;
  check "thunk ran" true !ran;
  check "nothing attributed while disabled" true (Sim.Prof.folded () = [])

let test_scope_survives_suspension () =
  (* The scope stack lives on the task context, not the host call stack:
     cycles charged after the task resumes from a sleep inside the scope
     must still attribute to it. *)
  Sim.Prof.enable ();
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Selftest.fresh_boot ();
  (* fresh_boot re-anchored attribution at cycle 0. *)
  ignore
    (Ostd.Task.spawn ~name:"holder" (fun () ->
         Sim.Prof.scope "crit" (fun () ->
             Sim.Clock.charge 3000;
             Ostd.Task.sleep_us 50.;
             Sim.Clock.charge 4000)));
  ignore (Ostd.Task.spawn ~name:"other" (fun () -> Ostd.Task.sleep_us 10.));
  Ostd.Task.run ();
  let crit_cycles =
    List.fold_left
      (fun acc (k, c) ->
        let is_holder_crit =
          String.length k > 7
          && String.sub k 0 7 = "holder/"
          &&
          match String.rindex_opt k ';' with
          | Some i -> String.sub k (i + 1) (String.length k - i - 1) = "crit"
          | None -> false
        in
        if is_holder_crit then Int64.add acc c else acc)
      0L (Sim.Prof.folded ())
  in
  check "post-resume cycles attributed to the surviving scope" true (crit_cycles >= 7000L);
  check "conserved across suspension" true (Sim.Prof.conserved ());
  Sim.Prof.reset ()

(* --- Full-workload conservation, determinism, zero cost --- *)

let profiled_chaos seed =
  Sim.Prof.enable ();
  let o = Apps.Chaos.run ~seed () in
  let out = Sim.Prof.render_folded () in
  let elapsed = Sim.Prof.elapsed () in
  let attributed = Sim.Prof.total_attributed () in
  let end_time = Sim.Clock.now () in
  Sim.Prof.reset ();
  (o.Apps.Chaos.completed, out, elapsed, attributed, end_time)

let test_workload_conservation () =
  let _, out, elapsed, attributed, _ = profiled_chaos 5L in
  check "folded output nonempty" true (String.length out > 0);
  check "virtual time advanced" true (elapsed > 0L);
  check_i64 "attributed cycles sum exactly to elapsed" elapsed attributed

let test_same_seed_identical_profiles () =
  let c1, o1, _, _, e1 = profiled_chaos 7L in
  let c2, o2, _, _, e2 = profiled_chaos 7L in
  check_int "same workload outcome" c1 c2;
  check "same end timestamp" true (Int64.equal e1 e2);
  check "byte-identical folded output" true (String.equal o1 o2)

let test_profiled_run_same_virtual_time () =
  (* Profiling must charge nothing: the same run, bare and profiled,
     finishes at the same virtual timestamp. *)
  Sim.Prof.reset ();
  ignore (Apps.Chaos.run ~seed:11L ());
  let bare_end = Sim.Clock.now () in
  let _, out, _, _, prof_end = profiled_chaos 11L in
  check "profile actually recorded" true (String.length out > 0);
  check "profiling is free in virtual time" true (Int64.equal bare_end prof_end)

(* --- Conservation under the batched net TX pipeline ---

   Batching moves TX work out of the syscall path into softirq reaps,
   NAPI poll events and burst flushes; every cycle spent there must
   still be attributed to exactly one scope stack, and the "net" scope
   must actually appear in the profile. *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  go 0

let test_net_batch_conservation () =
  Sim.Prof.enable ();
  let row = Apps.Lmbench.find "bw_tcp 64k (virtio)" in
  let mbs = row.Apps.Lmbench.run Sim.Profile.asterinas in
  let out = Sim.Prof.render_folded () in
  let elapsed = Sim.Prof.elapsed () in
  let attributed = Sim.Prof.total_attributed () in
  Sim.Prof.reset ();
  check "throughput was measured" true (mbs > 0.);
  check "bursts were submitted" true (Sim.Stats.get "net.burst" > 0);
  check "the net scope appears in the folded profile" true (contains ~needle:";net" out);
  check_i64 "attributed cycles sum exactly to elapsed" elapsed attributed

(* --- Linux-ABI accounting surface --- *)

let run_user body =
  ignore (Aster.Kernel.boot ~profile:Sim.Profile.asterinas ());
  Apps.Libc.install_child_resolver ();
  let result = ref None in
  let wrapped uapi =
    let code = body (Apps.Libc.make uapi) in
    result := Some code;
    code
  in
  ignore (Aster.Process.spawn_kernel_style ~name:"acct" wrapped);
  Aster.Kernel.run ();
  match !result with
  | Some code -> code
  | None -> Alcotest.fail "user program did not finish"

let burn_cpu c ~writes =
  let fd = Apps.Libc.openf c "/acct.dat" ~flags:0o101 (* O_CREAT|O_WRONLY *) ~mode:0o644 in
  let buf = Apps.Libc.ualloc c 4096 in
  for _ = 1 to writes do
    ignore (Apps.Libc.write c ~fd ~vaddr:buf ~len:4096)
  done;
  ignore (Apps.Libc.fsync c fd);
  ignore (Apps.Libc.close c fd)

(* Scope keys are built lazily, only while attribution is on: enabling
   kprof in the middle of a run, from inside a task, must still give an
   exactly conserved profile that names the syscalls made after it. *)
let test_enable_mid_run_conserved () =
  Sim.Prof.reset ();
  let code =
    run_user (fun c ->
        burn_cpu c ~writes:50;
        Sim.Prof.enable ();
        burn_cpu c ~writes:50;
        0)
  in
  check_int "exit" 0 code;
  check "conserved" true (Sim.Prof.conserved ());
  check "write attributed after the mid-run enable" true
    (List.exists (fun (k, _) -> contains ~needle:"syscall.write" k) (Sim.Prof.folded ()));
  Sim.Prof.reset ()

let test_proc_stat_matches_getrusage () =
  let code =
    run_user (fun c ->
        burn_cpu c ~writes:400;
        match Apps.Libc.getrusage c with
        | None -> 2
        | Some ru ->
          let sum_us = Int64.add ru.Apps.Libc.ru_utime_us ru.Apps.Libc.ru_stime_us in
          if sum_us <= 0L then 3
          else begin
            let pid = Apps.Libc.getpid c in
            let sfd =
              Apps.Libc.openf c (Printf.sprintf "/proc/%d/stat" pid) ~flags:0 ~mode:0
            in
            if sfd < 0 then 4
            else begin
              let s = Apps.Libc.read_str c ~fd:sfd ~len:4096 in
              ignore (Apps.Libc.close c sfd);
              (* "pid (comm) state ppid 0*9 utime stime 0 0": utime and
                 stime are Linux's fields 14 and 15, in CLK_TCK ticks. *)
              match String.split_on_char ' ' (String.trim s) with
              | _pid :: _comm :: _state :: rest when List.length rest >= 12 ->
                let stat_ticks =
                  Int64.add
                    (Int64.of_string (List.nth rest 10))
                    (Int64.of_string (List.nth rest 11))
                in
                let ru_ticks = Int64.div sum_us 10_000L in
                if Int64.abs (Int64.sub stat_ticks ru_ticks) <= 1L then 0 else 5
              | _ -> 6
            end
          end)
  in
  check_int "stat utime+stime agrees with getrusage (exit code)" 0 code

let test_times_and_process_cputime () =
  let code =
    run_user (fun c ->
        burn_cpu c ~writes:100;
        match Apps.Libc.getrusage c with
        | None -> 1
        | Some ru ->
          let sum_us = Int64.add ru.Apps.Libc.ru_utime_us ru.Apps.Libc.ru_stime_us in
          if sum_us <= 0L then 2
          else begin
            (* CLOCK_PROCESS_CPUTIME_ID, sampled just after getrusage:
               never less, and within a generous 1ms of it. *)
            let cpu_us = Int64.div (Apps.Libc.clock_process_cputime_ns c) 1000L in
            if cpu_us < sum_us then 3
            else if Int64.sub cpu_us sum_us > 1000L then 4
            else begin
              let tms = Apps.Libc.times c in
              let tms_ticks = Int64.add tms.Apps.Libc.tms_utime tms.Apps.Libc.tms_stime in
              let ru_ticks = Int64.div sum_us 10_000L in
              if Int64.abs (Int64.sub tms_ticks ru_ticks) > 1L then 5
              else if tms.Apps.Libc.tms_uptime < 0L then 6
              else if ru.Apps.Libc.ru_nvcsw < 0L || ru.Apps.Libc.ru_nivcsw < 0L then 7
              else 0
            end
          end)
  in
  check_int "times and CLOCK_PROCESS_CPUTIME_ID consistent (exit code)" 0 code

(* --- Lock contention statistics --- *)

let test_lock_stat_counts_contention () =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Selftest.fresh_boot ();
  Ostd.Sync.Lock_stat.set_hold_watchdog_us 10.;
  let m = Ostd.Sync.Mutex.create "kprof_test" in
  ignore
    (Ostd.Task.spawn ~name:"holder" (fun () ->
         Ostd.Sync.Mutex.with_lock m (fun () -> Ostd.Task.sleep_us 50.)));
  ignore
    (Ostd.Task.spawn ~name:"waiter" (fun () -> Ostd.Sync.Mutex.with_lock m (fun () -> ())));
  Ostd.Task.run ();
  Ostd.Sync.Lock_stat.set_hold_watchdog_us 1000.;
  check_int "two acquisitions" 2 (Sim.Stats.get "lock.kprof_test.acquire");
  check "the forced contention was counted" true
    (Sim.Stats.get "lock.kprof_test.contended" >= 1);
  check "the 50us hold tripped the 10us watchdog" true
    (Sim.Stats.get "lock.watchdog.long_hold" >= 1);
  (match Sim.Hist.find "lock.kprof_test.hold" with
  | Some h -> check_int "both holds sampled" 2 (Sim.Hist.count h)
  | None -> Alcotest.fail "no hold histogram");
  match Sim.Hist.find "lock.kprof_test.wait" with
  | Some h -> check "contended wait sampled" true (Sim.Hist.count h >= 1)
  | None -> Alcotest.fail "no wait histogram"

let () =
  Alcotest.run "kprof"
    [
      ( "attribution",
        [
          Alcotest.test_case "scope_attribution" `Quick test_scope_attribution;
          Alcotest.test_case "scope_pops_on_exception" `Quick test_scope_pops_on_exception;
          Alcotest.test_case "disabled_is_transparent" `Quick test_disabled_is_transparent;
          Alcotest.test_case "scope_survives_suspension" `Quick test_scope_survives_suspension;
        ] );
      ( "workload",
        [
          Alcotest.test_case "cycle_conservation" `Quick test_workload_conservation;
          Alcotest.test_case "same_seed_identical_profiles" `Quick
            test_same_seed_identical_profiles;
          Alcotest.test_case "profiled_run_same_virtual_time" `Quick
            test_profiled_run_same_virtual_time;
          Alcotest.test_case "net_batch_conservation" `Quick test_net_batch_conservation;
        ] );
      ( "abi",
        [
          Alcotest.test_case "enable_mid_run_conserved" `Quick test_enable_mid_run_conserved;
          Alcotest.test_case "proc_stat_matches_getrusage" `Quick
            test_proc_stat_matches_getrusage;
          Alcotest.test_case "times_and_process_cputime" `Quick test_times_and_process_cputime;
        ] );
      ( "locks",
        [ Alcotest.test_case "lock_stat_counts_contention" `Quick test_lock_stat_counts_contention ] );
    ]
