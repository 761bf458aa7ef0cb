let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let fresh () =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Selftest.fresh_boot ()

(* --- Task and scheduling --- *)

let test_spawn_and_run () =
  fresh ();
  let log = ref [] in
  ignore (Ostd.Task.spawn ~name:"a" (fun () -> log := "a" :: !log));
  ignore (Ostd.Task.spawn ~name:"b" (fun () -> log := "b" :: !log));
  Ostd.Task.run ();
  Alcotest.(check (list string)) "fifo order" [ "a"; "b" ] (List.rev !log)

let test_yield_interleaves () =
  fresh ();
  let log = ref [] in
  let body tag () =
    for i = 1 to 3 do
      log := Printf.sprintf "%s%d" tag i :: !log;
      Ostd.Task.yield_now ()
    done
  in
  ignore (Ostd.Task.spawn (body "x"));
  ignore (Ostd.Task.spawn (body "y"));
  Ostd.Task.run ();
  Alcotest.(check (list string))
    "interleaved" [ "x1"; "y1"; "x2"; "y2"; "x3"; "y3" ] (List.rev !log)

let test_wait_queue_wake () =
  fresh ();
  let wq = Ostd.Wait_queue.create () in
  let got = ref 0 in
  ignore
    (Ostd.Task.spawn ~name:"sleeper" (fun () ->
         Ostd.Wait_queue.sleep wq;
         got := 1));
  ignore
    (Ostd.Task.spawn ~name:"waker" (fun () ->
         check_int "one waiter" 1 (Ostd.Wait_queue.waiters wq);
         ignore (Ostd.Wait_queue.wake_one wq)));
  Ostd.Task.run ();
  check_int "woken and finished" 1 !got

let test_sleep_timeout () =
  fresh ();
  (* (a) Woken before the deadline: the condition holds, and the one
     deadline event the wait armed is gone again. *)
  let wq = Ostd.Wait_queue.create () in
  let flag = ref false in
  let woken = ref None and pending_before = ref (-1) and pending_after = ref (-2) in
  ignore
    (Ostd.Task.spawn ~name:"sleeper" (fun () ->
         pending_before := Sim.Events.pending ();
         let deadline = Int64.add (Sim.Clock.now ()) 1_000_000L in
         woken := Some (Ostd.Wait_queue.sleep_until_deadline wq ~deadline (fun () -> !flag));
         pending_after := Sim.Events.pending ()));
  ignore
    (Ostd.Task.spawn ~name:"waker" (fun () ->
         flag := true;
         ignore (Ostd.Wait_queue.wake_all wq : int)));
  Ostd.Task.run ();
  check "woken before the deadline returns true" true (!woken = Some true);
  check_int "deadline event cancelled" !pending_before !pending_after;
  (* (b) Nobody wakes it: still asleep one cycle before the deadline,
     woken by the deadline event on exactly the deadline cycle. *)
  let wq = Ostd.Wait_queue.create () in
  let deadline = ref 0L and timed_out = ref None in
  let asleep_before = ref (-1) and asleep_at = ref (-1) in
  ignore
    (Ostd.Task.spawn ~name:"sleeper" (fun () ->
         deadline := Int64.add (Sim.Clock.now ()) 5000L;
         timed_out := Some (Ostd.Wait_queue.sleep_until_deadline wq ~deadline:!deadline (fun () -> false))));
  ignore
    (Ostd.Task.spawn ~name:"observer" (fun () ->
         (* Scheduled after the sleeper armed its timer, so on the
            deadline cycle these run after it. *)
         ignore
           (Sim.Events.schedule_at (Int64.pred !deadline) (fun () ->
                asleep_before := Ostd.Wait_queue.waiters wq));
         ignore
           (Sim.Events.schedule_at !deadline (fun () -> asleep_at := Ostd.Wait_queue.waiters wq))));
  Ostd.Task.run ();
  check "deadline passing returns false" true (!timed_out = Some false);
  check_int "asleep one cycle before the deadline" 1 !asleep_before;
  check_int "woken on the deadline cycle" 0 !asleep_at;
  check "clock reached the deadline" true (Sim.Clock.now () >= !deadline);
  (* (c) A deadline past the event queue's horizon (a huge user
     timeout) saturates instead of being refused; a wake still ends the
     sleep, and the saturated deadline event is cancelled. *)
  let wq = Ostd.Wait_queue.create () in
  let flag = ref false and woken = ref None in
  ignore
    (Ostd.Task.spawn ~name:"sleeper" (fun () ->
         woken := Some (Ostd.Wait_queue.sleep_until_deadline wq ~deadline:Int64.max_int (fun () -> !flag))));
  ignore
    (Ostd.Task.spawn ~name:"waker" (fun () ->
         flag := true;
         ignore (Ostd.Wait_queue.wake_all wq : int)));
  Ostd.Task.run ();
  check "woken before a far-future deadline" true (!woken = Some true);
  check_int "no deadline event left queued" 0 (Sim.Events.pending ())

let test_task_sleep_advances_clock () =
  fresh ();
  ignore (Ostd.Task.spawn (fun () -> Ostd.Task.sleep_us 100.0));
  Ostd.Task.run ();
  check "virtual time" true (Sim.Clock.now () >= Int64.of_int (Sim.Clock.us 100.0))

let test_inv8_double_run_panics () =
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Boot.init ();
  Ostd.Falloc.inject (Ostd.Bootstrap_alloc.make ());
  Ostd.Boot.feed_free_memory ();
  (* A buggy scheduler that never dequeues: pick_next hands out the same
     task even while it is running. The nested dispatch loop then tries
     to run it twice — Inv. 8 must catch this. *)
  let the_task = ref None in
  let module Buggy = struct
    let enqueue t = the_task := Some t

    let pick_next () = !the_task

    let update_curr () = ()

    let dequeue_curr () = ()
  end in
  Ostd.Task.inject_scheduler (module Buggy);
  ignore
    (Ostd.Task.spawn (fun () ->
         (* Re-enter the dispatcher from inside the task: the scheduler
            will offer this very task again. *)
         Ostd.Task.run ()));
  Ostd.Selftest.expect_panic (fun () -> Ostd.Task.run ())

let test_kill_prevents_running () =
  fresh ();
  let ran = ref false in
  let t = Ostd.Task.spawn (fun () -> ran := true) in
  Ostd.Task.kill t;
  Ostd.Task.run ();
  check "killed task never ran" false !ran

let test_custom_data () =
  fresh ();
  let module M = struct
    type Ostd.Task.custom += Weight of int
  end in
  let t = Ostd.Task.spawn (fun () -> ()) in
  Ostd.Task.set_custom t (M.Weight 42);
  (match Ostd.Task.custom t with
  | Some (M.Weight 42) -> ()
  | _ -> Alcotest.fail "custom data lost");
  Ostd.Task.run ()

(* --- Sync primitives --- *)

let test_spinlock_atomic_mode () =
  fresh ();
  let lock = Ostd.Sync.Spin_lock.create "t" in
  ignore
    (Ostd.Task.spawn (fun () ->
         Ostd.Sync.Spin_lock.with_lock lock (fun () ->
             check "atomic inside" true (Ostd.Atomic_mode.in_atomic ()));
         check "released" false (Ostd.Atomic_mode.in_atomic ())));
  Ostd.Task.run ()

let test_sleep_under_spinlock_panics () =
  fresh ();
  let lock = Ostd.Sync.Spin_lock.create "t" in
  let panicked = ref false in
  ignore
    (Ostd.Task.spawn (fun () ->
         try Ostd.Sync.Spin_lock.with_lock lock (fun () -> Ostd.Task.sleep_us 1.0)
         with Ostd.Panic.Kernel_panic _ -> panicked := true));
  Ostd.Task.run ();
  check "sleep-in-atomic caught" true !panicked

let test_mutex_mutual_exclusion () =
  fresh ();
  let m = Ostd.Sync.Mutex.create "m" in
  let log = ref [] in
  let body tag () =
    Ostd.Sync.Mutex.with_lock m (fun () ->
        log := (tag ^ ":in") :: !log;
        Ostd.Task.sleep_us 10.0;
        log := (tag ^ ":out") :: !log)
  in
  ignore (Ostd.Task.spawn (body "a"));
  ignore (Ostd.Task.spawn (body "b"));
  Ostd.Task.run ();
  Alcotest.(check (list string))
    "critical sections do not overlap"
    [ "a:in"; "a:out"; "b:in"; "b:out" ]
    (List.rev !log)

let test_rwlock_readers_share () =
  fresh ();
  let rw = Ostd.Sync.Rw_lock.create "rw" in
  let concurrent = ref 0 and peak = ref 0 in
  let reader () =
    Ostd.Sync.Rw_lock.with_read rw (fun () ->
        incr concurrent;
        if !concurrent > !peak then peak := !concurrent;
        Ostd.Task.sleep_us 5.0;
        decr concurrent)
  in
  ignore (Ostd.Task.spawn reader);
  ignore (Ostd.Task.spawn reader);
  Ostd.Task.run ();
  check_int "both readers inside together" 2 !peak

let test_rcu_grace_period () =
  fresh ();
  let cell = Ostd.Sync.Rcu.create 1 in
  let order = ref [] in
  ignore
    (Ostd.Task.spawn ~name:"reader" (fun () ->
         Ostd.Sync.Rcu.read cell (fun v ->
             order := Printf.sprintf "read:%d" v :: !order)));
  ignore
    (Ostd.Task.spawn ~name:"updater" (fun () ->
         Ostd.Sync.Rcu.update cell 2;
         Ostd.Sync.Rcu.synchronize ();
         order := "synced" :: !order));
  Ostd.Task.run ();
  check "reader ran" true (List.mem "read:1" !order);
  check "synchronize completed" true (List.mem "synced" !order)

let test_rcu_no_sleep_in_read () =
  fresh ();
  let cell = Ostd.Sync.Rcu.create 0 in
  let panicked = ref false in
  ignore
    (Ostd.Task.spawn (fun () ->
         try Ostd.Sync.Rcu.read cell (fun _ -> Ostd.Task.sleep_us 1.0)
         with Ostd.Panic.Kernel_panic _ -> panicked := true));
  Ostd.Task.run ();
  check "rcu read section is atomic" true !panicked

(* --- User mode --- *)

let test_user_syscall_roundtrip () =
  fresh ();
  let vm = Ostd.Vmspace.create () in
  let prog uapi =
    let r = uapi.Ostd.User.sys 1 [| 41L |] in
    Int64.to_int r
  in
  let ut = Ostd.User.create prog vm in
  let exit_code = ref (-1) in
  ignore
    (Ostd.Task.spawn (fun () ->
         let rec loop resume =
           match Ostd.User.execute ut resume with
           | Ostd.User.Syscall { nr = 1; args } ->
             loop (Ostd.User.Sysret (Int64.add args.(0) 1L))
           | Ostd.User.Syscall _ -> loop (Ostd.User.Sysret (-38L))
           | Ostd.User.Page_fault _ -> Alcotest.fail "unexpected fault"
           | Ostd.User.Exit code -> exit_code := code
         in
         loop Ostd.User.Start));
  Ostd.Task.run ();
  check_int "syscall result became exit code" 42 !exit_code;
  Ostd.Vmspace.destroy vm

let test_user_demand_paging () =
  fresh ();
  let vm = Ostd.Vmspace.create () in
  let prog uapi =
    (* Touch unmapped memory: the kernel maps a zero page on fault. *)
    uapi.Ostd.User.mem_write_u64 0x7000 123L;
    if uapi.Ostd.User.mem_read_u64 0x7000 = 123L then 0 else 1
  in
  let ut = Ostd.User.create prog vm in
  let faults = ref 0 in
  let exit_code = ref (-1) in
  ignore
    (Ostd.Task.spawn (fun () ->
         let rec loop resume =
           match Ostd.User.execute ut resume with
           | Ostd.User.Page_fault { vaddr; _ } ->
             incr faults;
             Ostd.Vmspace.map vm
               ~vaddr:(vaddr / 4096 * 4096)
               (Ostd.Frame.alloc ~untyped:true ())
               Ostd.Vmspace.rw;
             loop Ostd.User.Fault_resolved
           | Ostd.User.Syscall _ -> loop (Ostd.User.Sysret 0L)
           | Ostd.User.Exit code -> exit_code := code
         in
         loop Ostd.User.Start));
  Ostd.Task.run ();
  check_int "exit ok" 0 !exit_code;
  check_int "exactly one demand fault" 1 !faults;
  Ostd.Vmspace.destroy vm

let test_user_context_masks_sensitive_rflags () =
  let ctx = Ostd.User.Context.create () in
  (* IF (bit 9) and IOPL (bits 12-13) must be masked; carry (bit 0) kept. *)
  Ostd.User.Context.set_rflags ctx 0x3201L;
  Alcotest.(check int64) "masked" 0x1L (Ostd.User.Context.rflags ctx)

let test_user_context_clone () =
  let ctx = Ostd.User.Context.create () in
  Ostd.User.Context.set_gpr ctx 0 7L;
  Ostd.User.Context.set_rip ctx 0x400000L;
  let c2 = Ostd.User.Context.clone ctx in
  Ostd.User.Context.set_gpr ctx 0 9L;
  Alcotest.(check int64) "clone is independent" 7L (Ostd.User.Context.get_gpr c2 0);
  Alcotest.(check int64) "rip copied" 0x400000L (Ostd.User.Context.rip c2)

(* --- Selftest corpus --- *)

let selftest_cases =
  List.map
    (fun c ->
      Alcotest.test_case
        (c.Ostd.Selftest.submodule ^ "." ^ c.Ostd.Selftest.name)
        `Quick
        (fun () -> c.Ostd.Selftest.run ()))
    Ostd.Selftest.cases

(* --- Properties --- *)

let prop_untyped_roundtrip =
  QCheck.Test.make ~name:"untyped_random_roundtrips" ~count:100
    QCheck.(pair (int_range 0 4000) (string_of_size (QCheck.Gen.int_range 1 96)))
    (fun (off, s) ->
      fresh ();
      let f = Ostd.Frame.alloc ~untyped:true () in
      let len = String.length s in
      let fits = off + len <= 4096 in
      let ok =
        if fits then begin
          Ostd.Untyped.write_bytes f ~off ~buf:(Bytes.of_string s) ~pos:0 ~len;
          let out = Bytes.create len in
          Ostd.Untyped.read_bytes f ~off ~buf:out ~pos:0 ~len;
          Bytes.to_string out = s
        end
        else
          match Ostd.Untyped.write_bytes f ~off ~buf:(Bytes.of_string s) ~pos:0 ~len with
          | () -> false
          | exception Ostd.Panic.Kernel_panic _ -> true
      in
      Ostd.Frame.drop f;
      ok)

let prop_frame_alloc_drop_balance =
  QCheck.Test.make ~name:"frame_handles_balance" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 1 4))
    (fun sizes ->
      fresh ();
      let frames = List.map (fun p -> Ostd.Frame.alloc ~pages:p ~untyped:true ()) sizes in
      let live_at_peak = Ostd.Frame.live_handles () in
      List.iter Ostd.Frame.drop frames;
      live_at_peak = List.length sizes && Ostd.Frame.live_handles () = 0)

let prop_slab_alloc_free =
  QCheck.Test.make ~name:"slab_never_aliases_slots" ~count:50
    QCheck.(int_range 1 64)
    (fun n ->
      fresh ();
      let s = Ostd.Slab.create ~slot_size:64 ~pages:1 in
      let taken = ref [] in
      for _ = 1 to n do
        match Ostd.Slab.alloc s with
        | Some slot -> taken := slot :: !taken
        | None -> ()
      done;
      let addrs = List.map Ostd.Slab.Heap_slot.addr !taken in
      let distinct = List.sort_uniq compare addrs in
      let ok = List.length distinct = List.length addrs in
      List.iter (Ostd.Slab.dealloc s) !taken;
      Ostd.Slab.destroy s;
      ok)

(* --- Graceful degradation: containment, IRQ storms, transient allocs --- *)

let drain () =
  while Sim.Events.run_next () do
    ()
  done

let test_service_failure_contained () =
  fresh ();
  (match Ostd.Panic.contain (fun () -> Ostd.Panic.fail ~errno:5 "disk on fire") with
  | Error 5 -> ()
  | Error e -> Alcotest.failf "wrong errno %d" e
  | Ok _ -> Alcotest.fail "failure was swallowed");
  check_int "success passes through" 3
    (match Ostd.Panic.contain (fun () -> 3) with Ok v -> v | Error _ -> -1);
  (* Invariant violations must NOT be containable. *)
  match Ostd.Panic.contain (fun () -> Ostd.Panic.panic "Inv. broken") with
  | exception Ostd.Panic.Kernel_panic _ -> ()
  | _ -> Alcotest.fail "Kernel_panic must escape containment"

let test_task_contained_death () =
  fresh ();
  let survivor = ref false in
  ignore (Ostd.Task.spawn ~name:"doomed" (fun () -> Ostd.Panic.fail "service hiccup"));
  ignore (Ostd.Task.spawn ~name:"bystander" (fun () -> survivor := true));
  Ostd.Task.run ();
  check "bystander unaffected" true !survivor;
  check "death recorded as contained" true (Sim.Stats.get "task.contained_failure" > 0)

let test_irq_spurious_vector_absorbed () =
  fresh ();
  (* Nobody claims the spurious vector; delivery must be absorbed and
     counted, never crash. Injected by the chip itself, so it bypasses
     remapping exactly like real spurious interrupts do. *)
  let line = Ostd.Irq.claim ~vector:77 ~name:"legit" () in
  Ostd.Irq.set_handler line (fun () -> ());
  Ostd.Irq.bind_device line ~dev:3;
  Sim.Fault.configure ~seed:2L [ ("irq.spurious", 1.0) ];
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 3) ~vector:77;
  drain ();
  Sim.Fault.disable ();
  check "spurious delivery absorbed" true (Sim.Stats.get "irq.unhandled" > 0);
  check "spurious injection recorded" true (Sim.Stats.get "irq.injected_spurious" > 0)

let test_irq_storm_masked_and_polled () =
  fresh ();
  let line = Ostd.Irq.claim ~vector:88 ~name:"stormy" () in
  let runs = ref 0 in
  Ostd.Irq.set_handler line (fun () -> incr runs);
  Ostd.Irq.bind_device line ~dev:4;
  for _ = 1 to 200 do
    Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 4) ~vector:88
  done;
  drain ();
  check "handler shielded from the storm" true (!runs < 200);
  check "storm masked the vector" true (Sim.Stats.get "irq.storm_masked" > 0);
  check "excess deliveries dropped" true (Sim.Stats.get "irq.masked_dropped" > 0);
  check "polled fallback serviced it" true (Sim.Stats.get "degrade.recovered.irq_poll" > 0);
  check "vector unmasked after the poll" false (Ostd.Irq.is_masked ~vector:88);
  check_int "no vector left masked" 0 (Ostd.Irq.masked_count ())

let test_irq_handler_failure_contained () =
  fresh ();
  let line = Ostd.Irq.claim ~vector:99 ~name:"flaky" () in
  Ostd.Irq.set_handler line (fun () -> Ostd.Panic.fail "device ate the buffer");
  Ostd.Irq.bind_device line ~dev:5;
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 5) ~vector:99;
  drain ();
  check "failure contained, kernel alive" true (Sim.Stats.get "irq.handler_contained" > 0)

let test_alloc_transient_retry () =
  fresh ();
  Sim.Fault.configure ~seed:3L [ ("alloc.fail", 0.4) ];
  for _ = 1 to 20 do
    Ostd.Frame.drop (Ostd.Frame.alloc ~untyped:true ())
  done;
  Sim.Fault.disable ();
  check "transient failures retried" true (Sim.Stats.get "degrade.retried.alloc" > 0);
  check "allocations recovered" true (Sim.Stats.get "degrade.recovered.alloc" > 0)

let prop_vmspace_copy_matches =
  QCheck.Test.make ~name:"vmspace_copy_in_out_match" ~count:50
    QCheck.(string_of_size (QCheck.Gen.int_range 1 12000))
    (fun s ->
      fresh ();
      let vm = Ostd.Vmspace.create () in
      let len = String.length s in
      let pages = ((len + 4095) / 4096) + 1 in
      Ostd.Vmspace.map vm ~vaddr:0x10000
        (Ostd.Frame.alloc ~pages ~untyped:true ())
        Ostd.Vmspace.rw;
      let ok =
        match Ostd.Vmspace.copy_in vm ~vaddr:0x10000 ~buf:(Bytes.of_string s) ~pos:0 ~len with
        | Error _ -> false
        | Ok () -> (
          let out = Bytes.create len in
          match Ostd.Vmspace.copy_out vm ~vaddr:0x10000 ~buf:out ~pos:0 ~len with
          | Error _ -> false
          | Ok () -> Bytes.to_string out = s)
      in
      Ostd.Vmspace.destroy vm;
      ok)

let () =
  Alcotest.run "ostd"
    [
      ("selftest_corpus", selftest_cases);
      ( "task",
        [
          Alcotest.test_case "spawn_run" `Quick test_spawn_and_run;
          Alcotest.test_case "yield" `Quick test_yield_interleaves;
          Alcotest.test_case "wait_queue" `Quick test_wait_queue_wake;
          Alcotest.test_case "sleep_timeout" `Quick test_sleep_timeout;
          Alcotest.test_case "sleep_clock" `Quick test_task_sleep_advances_clock;
          Alcotest.test_case "inv8_double_run" `Quick test_inv8_double_run_panics;
          Alcotest.test_case "kill" `Quick test_kill_prevents_running;
          Alcotest.test_case "custom_data" `Quick test_custom_data;
        ] );
      ( "sync",
        [
          Alcotest.test_case "spinlock_atomic" `Quick test_spinlock_atomic_mode;
          Alcotest.test_case "sleep_under_spinlock" `Quick test_sleep_under_spinlock_panics;
          Alcotest.test_case "mutex" `Quick test_mutex_mutual_exclusion;
          Alcotest.test_case "rwlock" `Quick test_rwlock_readers_share;
          Alcotest.test_case "rcu" `Quick test_rcu_grace_period;
          Alcotest.test_case "rcu_atomic" `Quick test_rcu_no_sleep_in_read;
        ] );
      ( "user",
        [
          Alcotest.test_case "syscall_roundtrip" `Quick test_user_syscall_roundtrip;
          Alcotest.test_case "demand_paging" `Quick test_user_demand_paging;
          Alcotest.test_case "rflags_mask" `Quick test_user_context_masks_sensitive_rflags;
          Alcotest.test_case "context_clone" `Quick test_user_context_clone;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "service_failure_contained" `Quick test_service_failure_contained;
          Alcotest.test_case "task_contained_death" `Quick test_task_contained_death;
          Alcotest.test_case "irq_spurious_absorbed" `Quick test_irq_spurious_vector_absorbed;
          Alcotest.test_case "irq_storm_masked_polled" `Quick test_irq_storm_masked_and_polled;
          Alcotest.test_case "irq_handler_contained" `Quick test_irq_handler_failure_contained;
          Alcotest.test_case "alloc_transient_retry" `Quick test_alloc_transient_retry;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_untyped_roundtrip;
            prop_frame_alloc_drop_balance;
            prop_slab_alloc_free;
            prop_vmspace_copy_matches;
          ] );
    ]
