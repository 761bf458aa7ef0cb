let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let test_clock_charge () =
  Sim.Clock.reset ();
  Sim.Clock.charge 100;
  Sim.Clock.charge 50;
  Alcotest.(check int64) "sum" 150L (Sim.Clock.now ());
  check "to_us" true (abs_float (Sim.Clock.to_us 3000L -. 1.0) < 1e-9);
  check_int "us" 3000 (Sim.Clock.us 1.0)

let test_clock_advance () =
  Sim.Clock.reset ();
  Sim.Clock.advance_to 500L;
  Sim.Clock.advance_to 200L;
  Alcotest.(check int64) "monotone" 500L (Sim.Clock.now ())

(* An empty observer slot is never called; a filled one sees every
   forward movement exactly once, charge or jump, and none backwards. *)
let test_clock_observers () =
  Sim.Clock.reset ();
  Sim.Prof.disable ();
  Sim.Span.disable ();
  check_int "no observers" 0 (Sim.Clock.observers ());
  let seen = ref [] in
  Sim.Clock.set_on_advance2 (fun d -> seen := d :: !seen);
  check_int "one observer" 1 (Sim.Clock.observers ());
  Sim.Clock.charge 10;
  Sim.Clock.charge 0;
  Sim.Clock.advance_to 100L;
  Sim.Clock.advance_to 50L;
  Sim.Clock.clear_on_advance2 ();
  Sim.Clock.charge 5;
  Alcotest.(check (list int64)) "deltas" [ 10L; 90L ] (List.rev !seen);
  check_int "cleared" 0 (Sim.Clock.observers ());
  Alcotest.(check int64) "time kept" 105L (Sim.Clock.now ());
  check_int "cycles is now" 105 (Sim.Clock.cycles ());
  Sim.Clock.advance_to_cycles 150;
  Sim.Clock.advance_to_cycles 120;
  check_int "advance_to_cycles is monotonic" 150 (Sim.Clock.cycles ())

(* A trigger fires on exactly the k-th consult of its own site, once. *)
let test_fault_trigger_one_shot () =
  Sim.Fault.reset ();
  check "unarmed" false (Sim.Fault.countdown "t.site");
  Sim.Fault.set_trigger "t.site" ~after:2;
  let got = List.init 5 (fun _ -> Sim.Fault.countdown "t.site") in
  Alcotest.(check (list bool)) "fires at 2 only" [ false; false; true; false; false ] got;
  check "other site" false (Sim.Fault.countdown "t.other");
  Alcotest.check_raises "negative" (Invalid_argument "Fault.set_trigger: negative count") (fun () ->
      Sim.Fault.set_trigger "t.site" ~after:(-1));
  Sim.Fault.reset ()

let test_clock_negative_charge () =
  Alcotest.check_raises "negative" (Invalid_argument "Clock.charge: negative cost") (fun () ->
      Sim.Clock.charge (-1))

let test_events_order () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let log = ref [] in
  ignore (Sim.Events.schedule_at 300L (fun () -> log := 3 :: !log));
  ignore (Sim.Events.schedule_at 100L (fun () -> log := 1 :: !log));
  ignore (Sim.Events.schedule_at 200L (fun () -> log := 2 :: !log));
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int64) "clock at last event" 300L (Sim.Clock.now ())

let test_events_same_time_fifo () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Events.schedule_at 50L (fun () -> log := i :: !log))
  done;
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_events_cancel () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let fired = ref false in
  let h = Sim.Events.schedule_at 10L (fun () -> fired := true) in
  Sim.Events.cancel h;
  check_int "pending" 0 (Sim.Events.pending ());
  while Sim.Events.run_next () do
    ()
  done;
  check "not fired" false !fired

let test_events_run_due () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let fired = ref 0 in
  ignore (Sim.Events.schedule_at 10L (fun () -> incr fired));
  ignore (Sim.Events.schedule_at 99999L (fun () -> incr fired));
  Sim.Clock.advance_to 10L;
  check "ran due" true (Sim.Events.run_due ());
  check_int "only the due one" 1 !fired;
  check_int "pending keeps future" 1 (Sim.Events.pending ())

let test_events_cascade () =
  (* An event scheduling another event at the same instant runs it within
     the same run_next call. *)
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let log = ref [] in
  ignore
    (Sim.Events.schedule_at 5L (fun () ->
         log := "a" :: !log;
         ignore (Sim.Events.schedule_after 0 (fun () -> log := "b" :: !log))));
  ignore (Sim.Events.run_next ());
  Alcotest.(check (list string)) "cascade" [ "a"; "b" ] (List.rev !log)

let test_events_edge_cases () =
  (* Zero-delay and already-expired deadlines: never run inside the
     arming call, then run at the current instant (clamped, not in the
     past). *)
  Sim.Clock.reset ();
  Sim.Events.clear ();
  Sim.Clock.advance_to 1_000_000L;
  let t0 = Sim.Clock.now () in
  let fired_zero = ref (-1L) and fired_past = ref (-1L) in
  ignore (Sim.Events.schedule_after 0 (fun () -> fired_zero := Sim.Clock.now ()));
  check "zero-delay entry never fires inside schedule_after" true (Int64.equal !fired_zero (-1L));
  ignore
    (Sim.Events.schedule_at (Int64.sub t0 5000L) (fun () -> fired_past := Sim.Clock.now ()));
  check "expired entry never fires inside schedule_at" true (Int64.equal !fired_past (-1L));
  while Sim.Events.run_next () do
    ()
  done;
  check "zero-delay entry fired at now" true (Int64.equal !fired_zero t0);
  check "expired entry fired at now, not in the past" true (Int64.equal !fired_past t0)

(* --- The event heap against a naive sorted-list oracle ---

   Every timed wait in the kernel is one heap entry (bio deadlines, TCP
   delayed-ACK/RTO, epoll_wait and poll timeouts), so the heap is the
   one timer mechanism to check. Mixed magnitudes from sub-µs to ~200 ms
   out; a third of the entries are cancelled; each arm charges a
   timer-programming cost, so the arming loop itself overruns the
   shortest deadlines before anything can fire. While the queue drains,
   a quarter of the callbacks cancel a random handle — live, already
   fired or already cancelled — and after every firing [pending] must
   equal the model's count of live entries. *)
let test_events_oracle seed () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  Sim.Clock.advance_to 1_000_000L;
  let t0 = Sim.Clock.now () in
  let rng = Sim.Rng.create seed in
  let n = 200 in
  let fired = ref [] in
  let deadlines = Array.make n 0L in
  let cancelled = Array.make n false in
  let live = Array.make n true in
  let handles = Array.make n None in
  let live_count () = Array.fold_left (fun a l -> if l then a + 1 else a) 0 live in
  let record i () =
    fired := (i, Sim.Clock.now ()) :: !fired;
    live.(i) <- false;
    if Sim.Rng.int rng 4 = 0 then begin
      let j = Sim.Rng.int rng n in
      match handles.(j) with
      | Some h ->
        Sim.Events.cancel h;
        if live.(j) then begin
          live.(j) <- false;
          cancelled.(j) <- true
        end
      | None -> ()
    end;
    check_int "pending equals the model's live count" (live_count ()) (Sim.Events.pending ())
  in
  (* Entries 0 and 1: a zero-delay and an already-expired deadline. *)
  deadlines.(0) <- t0;
  handles.(0) <- Some (Sim.Events.schedule_after 0 (record 0));
  deadlines.(1) <- Int64.sub t0 5000L;
  handles.(1) <- Some (Sim.Events.schedule_at deadlines.(1) (record 1));
  check "zero-delay and expired deadlines never fire inside the arming call" true (!fired = []);
  for i = 2 to n - 1 do
    Sim.Clock.charge 300;
    let delta =
      match Sim.Rng.int rng 4 with
      | 0 -> 1 + Sim.Rng.int rng 2048
      | 1 -> 1 + Sim.Rng.int rng 65536
      | 2 -> 1 + Sim.Rng.int rng 2_000_000
      | _ -> 1 + Sim.Rng.int rng 600_000_000
    in
    deadlines.(i) <- Int64.add (Sim.Clock.now ()) (Int64.of_int delta);
    handles.(i) <- Some (Sim.Events.schedule_at deadlines.(i) (record i))
  done;
  Array.iteri
    (fun i h ->
      match h with
      | Some h when i >= 2 && Sim.Rng.int rng 3 = 0 ->
        Sim.Events.cancel h;
        cancelled.(i) <- true;
        live.(i) <- false
      | _ -> ())
    handles;
  check "nothing fires inside arm or cancel" true (!fired = []);
  check_int "cancel is eager: pending counts live entries" (live_count ()) (Sim.Events.pending ());
  let t_armed = Sim.Clock.now () in
  while Sim.Events.run_next () do
    ()
  done;
  let got = List.rev !fired in
  (* Oracle: live entries fire in (deadline, arm order); cancelled ones
     never fire, whether cancelled before the run or by an earlier
     callback; deadlines the arming loop overran clamp to its end. *)
  let expect =
    List.init n (fun i -> i)
    |> List.filter (fun i -> not cancelled.(i))
    |> List.map (fun i -> (deadlines.(i), i))
    |> List.sort compare
  in
  check_int "every live entry fired exactly once" (List.length expect) (List.length got);
  List.iter2
    (fun (d, i) (gi, at) ->
      check_int "fired in (deadline, arm order)" i gi;
      let eff = if Int64.compare d t_armed < 0 then t_armed else d in
      let lag = Int64.sub at eff in
      check "never early" true (Int64.compare lag 0L >= 0);
      (* The heap keeps exact deadlines, so the lag bound is zero. *)
      check "no lag: fires on the exact (clamped) deadline cycle" true (Int64.equal lag 0L))
    expect got;
  check_int "nothing left pending" 0 (Sim.Events.pending ())

(* Cancel removes the entry at once: 20k far-future events, all but
   three cancelled, leave exactly three queued, and those three fire in
   (time, arm order). Cancelling twice, from inside the event's own
   callback, or after it fired changes nothing. *)
let test_events_cancel_is_eager () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let n = 20_000 in
  let rng = Sim.Rng.create 99L in
  let log = ref [] in
  let self = ref None in
  let times = Array.init n (fun _ -> Int64.of_int (1_000_000_000 + Sim.Rng.int rng 1000)) in
  let keep = [ 17; 4242; 19_999 ] in
  let handles =
    Array.init n (fun i ->
        Sim.Events.schedule_at times.(i) (fun () ->
            log := i :: !log;
            Option.iter Sim.Events.cancel !self))
  in
  check_int "all queued" n (Sim.Events.pending ());
  Array.iteri (fun i h -> if not (List.mem i keep) then Sim.Events.cancel h) handles;
  check_int "only the survivors stay queued" 3 (Sim.Events.pending ());
  Sim.Events.cancel handles.(0);
  check_int "double cancel is a no-op" 3 (Sim.Events.pending ());
  let order = List.sort (fun a b -> compare (times.(a), a) (times.(b), b)) keep in
  let first = List.hd order in
  (* The first survivor cancels itself from inside its own callback. *)
  self := Some handles.(first);
  check "first survivor ran" true (Sim.Events.run_next ());
  self := None;
  check_int "self-cancel in the callback is a no-op" 2 (Sim.Events.pending ());
  Sim.Events.cancel handles.(first);
  check_int "cancelling a fired handle is a no-op" 2 (Sim.Events.pending ());
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list int)) "survivors fire in (time, seq) order" order (List.rev !log);
  check_int "drained" 0 (Sim.Events.pending ())

(* A handle from before [clear] is stale: cancelling it must not touch
   the event that now occupies its old heap slot, nor the count. *)
let test_events_stale_handle_after_clear () =
  Sim.Clock.reset ();
  Sim.Events.clear ();
  let stale = Sim.Events.schedule_at 10L ignore in
  Sim.Events.clear ();
  let fired = ref false in
  ignore (Sim.Events.schedule_at 20L (fun () -> fired := true));
  Sim.Events.cancel stale;
  check_int "stale cancel leaves the new event queued" 1 (Sim.Events.pending ());
  while Sim.Events.run_next () do
    ()
  done;
  check "the new event fired" true !fired;
  Sim.Events.cancel stale;
  check_int "nothing pending after the run" 0 (Sim.Events.pending ())

(* Keys are unboxed ints: a time outside [0, max_int] is refused rather
   than wrapped. *)
let test_events_schedule_at_range () =
  Sim.Events.clear ();
  let refused = Invalid_argument "Events.schedule_at: time outside [0, max_int]" in
  Alcotest.check_raises "negative time" refused (fun () ->
      ignore (Sim.Events.schedule_at (-1L) ignore));
  Alcotest.check_raises "past max_int" refused (fun () ->
      ignore (Sim.Events.schedule_at (Int64.succ (Int64.of_int max_int)) ignore));
  Alcotest.check_raises "Int64.max_int" refused (fun () ->
      ignore (Sim.Events.schedule_at Int64.max_int ignore));
  let h = Sim.Events.schedule_at (Int64.of_int max_int) ignore in
  check_int "max_int itself is accepted" 1 (Sim.Events.pending ());
  Sim.Events.cancel h;
  check_int "and cancelled" 0 (Sim.Events.pending ())

let test_stats () =
  Sim.Stats.reset ();
  Sim.Stats.incr "x";
  Sim.Stats.add "x" 4;
  check_int "counter" 5 (Sim.Stats.get "x");
  check_int "missing" 0 (Sim.Stats.get "y")

let test_geomean () =
  check "geomean" true (abs_float (Sim.Stats.geomean [ 2.0; 8.0 ] -. 4.0) < 1e-9);
  check "empty" true (Sim.Stats.geomean [] = 0.)

let test_profile_switch () =
  Sim.Profile.set Sim.Profile.linux;
  check "no checks" false (Sim.Profile.checks_on ());
  Sim.Clock.reset ();
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.boundary_check);
  Alcotest.(check int64) "no charge" 0L (Sim.Clock.now ());
  Sim.Profile.set Sim.Profile.asterinas;
  check "checks" true (Sim.Profile.checks_on ());
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.boundary_check);
  Alcotest.(check int64) "charged" 3L (Sim.Clock.now ())

let test_profile_variants () =
  check "aster iommu" true Sim.Profile.asterinas.Sim.Profile.iommu;
  check "no-iommu variant" false Sim.Profile.asterinas_no_iommu.Sim.Profile.iommu;
  check "linux has cc" true Sim.Profile.linux.Sim.Profile.tcp_congestion_control;
  check "aster lacks cc" false Sim.Profile.asterinas.Sim.Profile.tcp_congestion_control;
  let unchecked = Sim.Profile.with_safety_checks false Sim.Profile.asterinas in
  check "toggled" false unchecked.Sim.Profile.safety_checks;
  check "costs zeroed" true
    (unchecked.Sim.Profile.costs.Sim.Profile.safety.Sim.Profile.boundary_check = 0)

(* The baseline must differ from Asterinas exactly along the mechanism
   axes the paper names — these tests pin that configuration so a
   refactor cannot silently flip a switch. *)

let test_profile_switches () =
  let l = Sim.Profile.linux in
  let a = Sim.Profile.asterinas in
  check "linux runs congestion control" true l.Sim.Profile.tcp_congestion_control;
  check "asterinas does not" false a.Sim.Profile.tcp_congestion_control;
  check "linux has GSO" true l.Sim.Profile.tcp_gso;
  (* Since the offload work both profiles run GSO/GRO, checksum offload
     and zero-copy sendfile by default; [Sim.Profile.with_all_offloads
     false] is the software-segmentation baseline the ablations pin. *)
  check "asterinas has GSO" true a.Sim.Profile.tcp_gso;
  check "asterinas runs GRO" true a.Sim.Profile.net_gro;
  check "asterinas offloads checksums" true
    (a.Sim.Profile.csum_tx_offload && a.Sim.Profile.csum_rx_offload);
  check "linux rcu-walks" true l.Sim.Profile.rcu_walk;
  check "asterinas lock-walks" false a.Sim.Profile.rcu_walk;
  check "linux sendfile is zero-copy" true l.Sim.Profile.sendfile_zero_copy;
  check "asterinas sendfile is zero-copy" true a.Sim.Profile.sendfile_zero_copy;
  let off = Sim.Profile.with_all_offloads false a in
  check "with_all_offloads false is the software baseline" true
    ((not off.Sim.Profile.tcp_gso) && (not off.Sim.Profile.net_gro)
    && (not off.Sim.Profile.csum_tx_offload)
    && (not off.Sim.Profile.csum_rx_offload)
    && not off.Sim.Profile.sendfile_zero_copy);
  check "linux unix sockets double-copy" true l.Sim.Profile.unix_double_copy;
  check "linux runs no safety checks" false l.Sim.Profile.safety_checks;
  check "asterinas runs them" true a.Sim.Profile.safety_checks;
  check "linux baseline has no IOMMU" false l.Sim.Profile.iommu;
  check "asterinas defaults to IOMMU" true a.Sim.Profile.iommu

let test_boot_under_baseline () =
  let _k = Aster.Kernel.boot ~profile:Sim.Profile.linux () in
  Apps.Libc.install_child_resolver ();
  let ok = ref false in
  ignore
    (Aster.Process.spawn_kernel_style ~name:"lin-smoke" (fun uapi ->
         let c = Apps.Libc.make uapi in
         let fd = Apps.Libc.openf c "/tmp/lin" ~flags:0o101 ~mode:0o644 in
         ignore (Apps.Libc.write_str c ~fd "baseline");
         ignore (Apps.Libc.close c fd);
         let fd = Apps.Libc.openf c "/tmp/lin" ~flags:0 ~mode:0 in
         ok := Apps.Libc.read_str c ~fd ~len:16 = "baseline";
         0));
  Aster.Kernel.run ();
  check "baseline kernel boots and runs user programs" true !ok;
  (* No safety-check cycles under the baseline. *)
  Sim.Clock.reset ();
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.boundary_check);
  check "safety charge is zero" true (Sim.Clock.now () = 0L)

let test_baseline_beats_asterinas_where_expected () =
  (* RCU-walk makes Linux open(2) faster; no congestion control makes
     Asterinas's loopback TCP faster: both directions, one test. *)
  let open_row = Apps.Lmbench.find "lat_syscall open" in
  let tcp_row = Apps.Lmbench.find "lat_tcp (loopback)" in
  let l_open = open_row.Apps.Lmbench.run Sim.Profile.linux in
  let a_open = open_row.Apps.Lmbench.run Sim.Profile.asterinas in
  let l_tcp = tcp_row.Apps.Lmbench.run Sim.Profile.linux in
  let a_tcp = tcp_row.Apps.Lmbench.run Sim.Profile.asterinas in
  check "linux wins open(2)" true (l_open < a_open);
  check "asterinas wins loopback tcp" true (a_tcp < l_tcp)

let prop_rng_bounds =
  QCheck.Test.make ~name:"rng_int_within_bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Sim.Rng.create seed in
      let v = Sim.Rng.int rng bound in
      v >= 0 && v < bound)

let prop_rng_deterministic =
  QCheck.Test.make ~name:"rng_deterministic" ~count:100 QCheck.int64 (fun seed ->
      let a = Sim.Rng.create seed and b = Sim.Rng.create seed in
      List.for_all
        (fun _ -> Sim.Rng.next a = Sim.Rng.next b)
        [ 1; 2; 3; 4; 5 ])

let prop_events_fire_in_order =
  QCheck.Test.make ~name:"events_fire_in_time_order" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (int_range 0 10000))
    (fun times ->
      Sim.Clock.reset ();
      Sim.Events.clear ();
      let fired = ref [] in
      List.iter
        (fun t ->
          ignore (Sim.Events.schedule_at (Int64.of_int t) (fun () -> fired := t :: !fired)))
        times;
      while Sim.Events.run_next () do
        ()
      done;
      let order = List.rev !fired in
      order = List.sort compare order && List.length order = List.length times)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle_preserves_elements" ~count:200
    QCheck.(pair int64 (list small_int))
    (fun (seed, l) ->
      let arr = Array.of_list l in
      Sim.Rng.shuffle (Sim.Rng.create seed) arr;
      List.sort compare (Array.to_list arr) = List.sort compare l)

let () =
  Alcotest.run "sim"
    [
      ( "clock",
        [
          Alcotest.test_case "charge" `Quick test_clock_charge;
          Alcotest.test_case "advance_monotone" `Quick test_clock_advance;
          Alcotest.test_case "negative_charge" `Quick test_clock_negative_charge;
          Alcotest.test_case "observers" `Quick test_clock_observers;
        ] );
      ("fault", [ Alcotest.test_case "trigger_one_shot" `Quick test_fault_trigger_one_shot ]);
      ( "events",
        [
          Alcotest.test_case "order" `Quick test_events_order;
          Alcotest.test_case "fifo_ties" `Quick test_events_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_events_cancel;
          Alcotest.test_case "run_due" `Quick test_events_run_due;
          Alcotest.test_case "cascade" `Quick test_events_cascade;
          Alcotest.test_case "oracle_seed42" `Quick (test_events_oracle 42L);
          Alcotest.test_case "oracle_seed7" `Quick (test_events_oracle 7L);
          Alcotest.test_case "oracle_seed1234" `Quick (test_events_oracle 1234L);
          Alcotest.test_case "edge_cases" `Quick test_events_edge_cases;
          Alcotest.test_case "cancel_is_eager" `Quick test_events_cancel_is_eager;
          Alcotest.test_case "stale_handle_after_clear" `Quick test_events_stale_handle_after_clear;
          Alcotest.test_case "schedule_at_range" `Quick test_events_schedule_at_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats;
          Alcotest.test_case "geomean" `Quick test_geomean;
        ] );
      ( "profile",
        [
          Alcotest.test_case "switch" `Quick test_profile_switch;
          Alcotest.test_case "variants" `Quick test_profile_variants;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "profile_switches" `Quick test_profile_switches;
          Alcotest.test_case "boot" `Quick test_boot_under_baseline;
          Alcotest.test_case "expected_winners" `Quick test_baseline_beats_asterinas_where_expected;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rng_bounds;
            prop_rng_deterministic;
            prop_events_fire_in_order;
            prop_shuffle_is_permutation;
          ] );
    ]
