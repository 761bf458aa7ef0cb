(* The Asterinas simulator CLI: boot a kernel under a profile and run a
   workload, print ABI/syscall information, or drop into a scripted
   shell-style session.

     asterinas_sim boot --profile asterinas
     asterinas_sim run nginx --profile linux --requests 3000
     asterinas_sim syscalls *)

open Cmdliner

let profile_conv =
  let parse = function
    | "linux" -> Ok Sim.Profile.linux
    | "asterinas" | "aster" -> Ok Sim.Profile.asterinas
    | "asterinas-no-iommu" | "no-iommu" -> Ok Sim.Profile.asterinas_no_iommu
    | s -> Error (`Msg ("unknown profile " ^ s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt p.Sim.Profile.name)

let profile_arg =
  Arg.(
    value
    & opt profile_conv Sim.Profile.asterinas
    & info [ "p"; "profile" ] ~docv:"PROFILE" ~doc:"Kernel profile: linux, asterinas, no-iommu.")

let requests_arg =
  Arg.(value & opt int 2000 & info [ "n"; "requests" ] ~docv:"N" ~doc:"Request count.")

let cmd_boot =
  let run profile =
    ignore (Aster.Kernel.attach_host (Apps.Runner.boot ~profile));
    Printf.printf "booted %s: %d frames of RAM, %d-sector disk, %d syscalls implemented\n"
      profile.Sim.Profile.name (Ostd.Frame.total_frames ())
      (Aster.Block.capacity_sectors ())
      (Aster.Syscalls.implemented_count ());
    Printf.printf "mounts:\n";
    List.iter
      (fun (path, inode) -> Printf.printf "  %-8s %s\n" path inode.Aster.Vfs.fsname)
      (List.sort compare (Aster.Vfs.mounts ()));
    (* Run a smoke workload so the boot is exercised end to end. *)
    let ok = ref false in
    Apps.Runner.spawn ~name:"smoke" (fun c ->
        let fd = Apps.Libc.openf c "/tmp/boot.txt" ~flags:0o101 ~mode:0o644 in
        ignore (Apps.Libc.write_str c ~fd "boot ok");
        ignore (Apps.Libc.close c fd);
        ok := Apps.Libc.access c "/tmp/boot.txt" = 0;
        0);
    Apps.Runner.run ();
    Printf.printf "smoke user program: %s\n" (if !ok then "ok" else "FAILED")
  in
  Cmd.v (Cmd.info "boot" ~doc:"Boot a kernel and print a summary.")
    Term.(const run $ profile_arg)

(* --- Workload runner table ---

   One dispatch table shared by `run`, `trace run` and `prof run` (and
   feeding the chaos soak in as just another workload), so adding a
   workload is one entry here, not three copies of a match. *)

let workload_table : (string * (Sim.Profile.t -> int -> unit)) list =
  [
    ( "nginx",
      fun profile requests ->
        Printf.printf "%s nginx 4k: %.0f requests/s\n" profile.Sim.Profile.name
          (Apps.Workload.nginx_rps ~profile ~file:"f4k" ~requests) );
    ( "redis",
      fun profile requests ->
        Printf.printf "%s redis GET: %.0f requests/s\n" profile.Sim.Profile.name
          (Apps.Workload.redis_rps ~profile ~op:"GET" ~requests) );
    ( "sqlite",
      fun profile _requests ->
        let out = Apps.Workload.speedtest1 ~profile ~size:10 in
        let total = List.fold_left (fun a r -> a +. r.Apps.Speedtest1.seconds) 0. out in
        Printf.printf "%s speedtest1 total: %.4f virtual seconds over %d tests\n"
          profile.Sim.Profile.name total (List.length out) );
    ( "fio",
      fun profile _requests ->
        let r = Apps.Workload.fio ~profile ~mbytes:8 () in
        Printf.printf "%s fio: write %.0f MB/s, cold read %.0f MB/s, warm read %.0f MB/s\n"
          profile.Sim.Profile.name r.Apps.Fio.write_mb_s r.Apps.Fio.read_cold_mb_s
          r.Apps.Fio.read_mb_s );
    ( "lmbench",
      fun profile _requests ->
        List.iter
          (fun (row : Apps.Lmbench.row) ->
            Printf.printf "%-24s %10.3f %s\n" row.name (row.run profile) row.unit_)
          Apps.Lmbench.rows );
    ( "chaos",
      fun profile _requests ->
        let o = Apps.Chaos.run ~profile ~seed:42L () in
        Printf.printf "%s chaos: %d completed, %d errno, %d hung, %d panics\n"
          profile.Sim.Profile.name o.Apps.Chaos.completed o.Apps.Chaos.failed_errno
          o.Apps.Chaos.hung o.Apps.Chaos.panics );
  ]

let workload_names = String.concat ", " (List.map fst workload_table)

(* Returns false for an unknown workload so callers can report it. *)
let run_workload workload profile requests =
  match List.assoc_opt workload workload_table with
  | Some f ->
    f profile requests;
    true
  | None ->
    Printf.printf "unknown workload %s (try: %s)\n" workload workload_names;
    false

let workload_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"WORKLOAD" ~doc:(Printf.sprintf "One of: %s." workload_names))

let cmd_run =
  let run workload profile requests = ignore (run_workload workload profile requests) in
  Cmd.v (Cmd.info "run" ~doc:"Run a workload on the simulated kernel.")
    Term.(const run $ workload_arg $ profile_arg $ requests_arg)

(* --- ktrace: run a workload with tracing on, dump timeline + latency --- *)

let cats_conv =
  let parse s =
    if s = "all" then Ok Sim.Trace.all_categories
    else begin
      let names = String.split_on_char ',' s in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
          match Sim.Trace.category_of_string (String.trim n) with
          | Some c -> go (c :: acc) rest
          | None -> Error (`Msg ("unknown trace category " ^ n)))
      in
      go [] names
    end
  in
  let print fmt cs =
    Format.pp_print_string fmt
      (String.concat "," (List.map Sim.Trace.category_name cs))
  in
  Arg.conv (parse, print)

let cmd_trace =
  let cats_arg =
    Arg.(
      value
      & opt cats_conv Sim.Trace.all_categories
      & info [ "c"; "categories" ] ~docv:"CATS"
          ~doc:
            "Comma-separated tracepoint categories (syscall, sched, irq, softirq, pgfault, \
             blk, net, dma, lock, chaos) or 'all'.")
  in
  let tail_arg =
    Arg.(
      value & opt int 40
      & info [ "tail" ] ~docv:"N" ~doc:"Print only the newest N trace records.")
  in
  let run workload profile requests cats tail =
    Sim.Trace.disable_all ();
    List.iter Sim.Trace.enable cats;
    if not (run_workload workload profile requests) then exit 2;
    Printf.printf "\n--- ktrace: newest %d of %d records (%d dropped, %d total) ---\n" tail
      (Sim.Trace.length ()) (Sim.Trace.dropped ()) (Sim.Trace.total ());
    print_endline (Sim.Trace.render ~limit:tail ());
    let hists = Sim.Hist.by_prefix "syscall" in
    if hists <> [] then begin
      Printf.printf "\n--- syscall latency (us) ---\n%s\n" Sim.Hist.summary_header;
      (* Overall first, then per-syscall by descending count. *)
      let overall, per = List.partition (fun (n, _) -> n = "syscall") hists in
      let per =
        List.sort (fun (_, a) (_, b) -> compare (Sim.Hist.count b) (Sim.Hist.count a)) per
      in
      List.iter (fun (n, h) -> print_endline (Sim.Hist.summary_line n h)) (overall @ per)
    end;
    (match Sim.Hist.find "blk.bio" with
    | Some h ->
      Printf.printf "\n--- block I/O latency (us) ---\n%s\n%s\n" Sim.Hist.summary_header
        (Sim.Hist.summary_line "blk.bio" h)
    | None -> ())
  in
  let sub =
    Cmd.v
      (Cmd.info "run" ~doc:"Run a workload with tracing enabled, print timeline + percentiles.")
      Term.(const run $ workload_arg $ profile_arg $ requests_arg $ cats_arg $ tail_arg)
  in
  (* trace export --chrome: run with tracing (and spans) on, then emit a
     Chrome trace-event JSON document — ktrace records as instant events
     on the same timeline as the kspan reservoir's span tracks — for
     chrome://tracing / Perfetto. *)
  let export =
    let chrome_arg =
      Arg.(value & flag & info [ "chrome" ] ~doc:"Emit Chrome trace-event JSON (Perfetto).")
    in
    let out_arg =
      Arg.(
        value & opt string "-"
        & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file ('-' for stdout).")
    in
    let run workload profile requests cats chrome out =
      if not chrome then begin
        prerr_endline "trace export: only --chrome is supported";
        exit 2
      end;
      Sim.Trace.disable_all ();
      List.iter Sim.Trace.enable cats;
      Sim.Span.enable ();
      Sim.Span.set_auto true;
      if not (run_workload workload profile requests) then exit 2;
      let instants =
        List.map
          (fun (r : Sim.Trace.record) ->
            Sim.Span.chrome_instant
              ~ts_us:(Sim.Clock.to_us r.Sim.Trace.cycles)
              ~name:r.Sim.Trace.name
              ~cat:(Sim.Trace.category_name r.Sim.Trace.cat)
              ~args:[ ("task", r.Sim.Trace.task); ("args", r.Sim.Trace.args) ])
          (Sim.Trace.records ())
      in
      let doc = Sim.Span.chrome_wrap (Sim.Span.chrome_events () @ instants) in
      if out = "-" then print_string doc
      else begin
        let oc = open_out out in
        output_string oc doc;
        close_out oc;
        Printf.printf "wrote %d trace events + %d span tracks to %s\n"
          (List.length instants) (Sim.Span.finished_count ()) out
      end
    in
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Run a workload, then export the ktrace ring (as instant events) plus the kspan \
            reservoir (as span tracks) in Chrome trace-event JSON.")
      Term.(const run $ workload_arg $ profile_arg $ requests_arg $ cats_arg $ chrome_arg
            $ out_arg)
  in
  Cmd.group (Cmd.info "trace" ~doc:"ktrace: deterministic kernel tracing.") [ sub; export ]

(* --- kspan: run a workload with request-span tracking on --- *)

let cmd_span =
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"Waterfalls for the K slowest spans.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit nonzero unless spans were recorded and every reservoir span attributes \
             at least 95% of its wall time to named segments.")
  in
  let chrome_arg =
    Arg.(
      value & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:"Also write the reservoir as Chrome trace-event JSON to FILE.")
  in
  let run workload profile requests top check chrome =
    Sim.Span.enable ();
    Sim.Span.set_auto true;
    if not (run_workload workload profile requests) then exit 2;
    print_newline ();
    print_string (Sim.Span.render_top ~k:top);
    (match chrome with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc (Sim.Span.chrome_wrap (Sim.Span.chrome_events ()));
      close_out oc;
      Printf.printf "\nwrote span tracks to %s\n" file);
    let residual = Sim.Span.max_residual_frac () in
    Printf.printf "\nspans: %d finished, %d still live; worst unattributed fraction %.4f\n"
      (Sim.Span.finished_count ()) (Sim.Span.live_count ()) residual;
    if check then begin
      if Sim.Span.finished_count () = 0 then begin
        prerr_endline "kspan: no spans recorded";
        exit 1
      end;
      if residual >= 0.05 then begin
        Printf.eprintf "kspan: unattributed fraction %.4f >= 0.05\n" residual;
        exit 1
      end
    end
  in
  let sub =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a workload with kspan on: per-request spans, top-K waterfalls, and the \
            per-class critical-path histogram.")
      Term.(const run $ workload_arg $ profile_arg $ requests_arg $ top_arg $ check_arg
            $ chrome_arg)
  in
  Cmd.group
    (Cmd.info "span" ~doc:"kspan: causal request spans with critical-path analysis.")
    [ sub ]

(* --- kprof: run a workload under the cycle-attribution profiler --- *)

let cmd_prof =
  let top_arg =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"N" ~doc:"Print the top N frames by total cycles.")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Exit nonzero unless folded output is non-empty and sums exactly to elapsed \
                virtual cycles.")
  in
  let run workload profile requests top check =
    Sim.Prof.enable ();
    if not (run_workload workload profile requests) then exit 2;
    let elapsed = Sim.Prof.elapsed () in
    let attributed = Sim.Prof.total_attributed () in
    let conserved = Sim.Prof.conserved () in
    let nonempty = Sim.Prof.folded () <> [] in
    Printf.printf "\n--- kprof folded stacks (flamegraph.pl-compatible, cycles) ---\n";
    print_endline (Sim.Prof.render_folded ());
    Printf.printf "\n--- kprof top frames ---\n";
    print_endline (Sim.Prof.render_top ~limit:top ());
    Printf.printf "\nconservation: elapsed=%Ld attributed=%Ld -> %s\n" elapsed attributed
      (if conserved then "EXACT" else "VIOLATED");
    if check && not (conserved && nonempty) then begin
      prerr_endline
        (if not nonempty then "kprof: no folded output" else "kprof: conservation violated");
      exit 1
    end
  in
  let sub =
    Cmd.v
      (Cmd.info "run"
         ~doc:"Run a workload under kprof, print folded stacks + top table + conservation.")
      Term.(const run $ workload_arg $ profile_arg $ requests_arg $ top_arg $ check_arg)
  in
  Cmd.group (Cmd.info "prof" ~doc:"kprof: deterministic cycle-attribution profiling.") [ sub ]

let cmd_chaos =
  let seed_arg =
    Arg.(
      value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Fault-plane RNG seed.")
  in
  let log_arg =
    Arg.(value & flag & info [ "log" ] ~doc:"Print the full deterministic fault log.")
  in
  let run profile seed show_log =
    let o = Apps.Chaos.run ~profile ~seed:(Int64.of_int seed) () in
    Printf.printf "chaos soak (profile %s, seed %d):\n" profile.Sim.Profile.name seed;
    Printf.printf "  workloads: %d completed, %d failed with errno, %d hung\n" o.Apps.Chaos.completed
      o.Apps.Chaos.failed_errno o.Apps.Chaos.hung;
    Printf.printf "  containment: %d kernel panics, %d corrupt reads\n" o.Apps.Chaos.panics
      o.Apps.Chaos.corrupt;
    Printf.printf "  durability: sync %s, %d/%d blocks match the device\n"
      (if o.Apps.Chaos.sync_ok then "ok" else "FAILED")
      (o.Apps.Chaos.blocks_checked - o.Apps.Chaos.mismatches)
      o.Apps.Chaos.blocks_checked;
    Printf.printf "  faults: %s\n"
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) o.Apps.Chaos.report));
    let injected = List.sort compare (Sim.Fault.summary ()) in
    List.iter (fun (site, n) -> Printf.printf "    %-16s %d\n" site n) injected;
    Printf.printf "  top syscalls under fault:\n";
    List.iter
      (fun (name, n) -> Printf.printf "    %-16s %d\n" name n)
      (Aster.Strace.top 6);
    if show_log then List.iter print_endline o.Apps.Chaos.fault_log;
    let healthy =
      o.Apps.Chaos.hung = 0 && o.Apps.Chaos.panics = 0 && o.Apps.Chaos.corrupt = 0
      && (not o.Apps.Chaos.sync_ok || o.Apps.Chaos.mismatches = 0)
    in
    Printf.printf "verdict: %s\n" (if healthy then "graceful" else "DEGRADED BADLY");
    if not healthy then exit 1
  in
  let soak =
    Cmd.v
      (Cmd.info "soak"
         ~doc:"Run the chaos soak: workloads under a seeded fault schedule, then audit.")
      Term.(const run $ profile_arg $ seed_arg $ log_arg)
  in
  let points_arg =
    Arg.(
      value & opt string "all"
      & info [ "points" ] ~docv:"all|N"
          ~doc:
            "Crash points to sweep: 'all' cuts power at every write boundary; N samples \
             about N evenly-spaced boundaries.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~docv:"N" ~doc:"How many seeds to sweep (42, 7, 1234, …).")
  in
  let journal_off_arg =
    Arg.(
      value & flag
      & info [ "journal-off" ]
          ~doc:
            "Sweep with the ext2 journal disabled: the sweep must FIND corruption \
             (sensitivity check; the verdict inverts).")
  in
  let crash points nseeds journal_off =
    let all_seeds = [ 42L; 7L; 1234L; 99L; 2718L; 31415L ] in
    let seeds = List.filteri (fun i _ -> i < nseeds) all_seeds in
    let journal = not journal_off in
    let total_bad = ref 0 in
    let total_nondet = ref 0 in
    let total_panics = ref 0 in
    let total_points = ref 0 in
    List.iter
      (fun seed ->
        List.iter
          (fun workload ->
            let stride =
              match points with
              | "all" -> 1
              | n -> (
                match int_of_string_opt n with
                | Some n when n > 0 ->
                  let b = Apps.Crash.boundaries ~seed ~journal ~workload in
                  max 1 (b / n)
                | _ ->
                  prerr_endline "chaos crash: --points must be 'all' or a positive integer";
                  exit 2)
            in
            let r = Apps.Crash.sweep ~stride ~seed ~journal ~workload () in
            Printf.printf
              "crash %s seed %Ld (journal %s): %d boundaries, %d swept, %d bad, %d \
               nondeterministic, %d panics\n%!"
              (Apps.Crash.workload_name workload)
              seed
              (if journal then "on" else "off")
              r.Apps.Crash.total_boundaries r.Apps.Crash.swept
              (List.length r.Apps.Crash.bad_points)
              (List.length r.Apps.Crash.nondet_points)
              r.Apps.Crash.spanics;
            (match r.Apps.Crash.bad_points with
            | (k, msgs) :: _ when journal ->
              Printf.printf "  first bad point k=%d:\n" k;
              List.iter (fun m -> Printf.printf "    %s\n" m) msgs
            | _ -> ());
            total_bad := !total_bad + List.length r.Apps.Crash.bad_points;
            total_nondet := !total_nondet + List.length r.Apps.Crash.nondet_points;
            total_panics := !total_panics + r.Apps.Crash.spanics;
            total_points := !total_points + r.Apps.Crash.swept)
          [ Apps.Crash.Fs; Apps.Crash.Sqlite ])
      seeds;
    (* Same-seed recovery logs byte-identical is part of every sweep
       (each image is recovered twice); a journaled sweep must also be
       violation-free, while an unjournaled one must find corruption. *)
    let ok =
      !total_nondet = 0 && !total_panics = 0
      && if journal then !total_bad = 0 else !total_bad > 0
    in
    Printf.printf "verdict: %s (%d crash points, %d bad, %d nondeterministic)\n"
      (if ok then
         if journal then "crash-consistent" else "corruption detected (as it must be)"
       else "FAILED")
      !total_points !total_bad !total_nondet;
    if not ok then exit 1
  in
  let crash_cmd =
    Cmd.v
      (Cmd.info "crash"
         ~doc:
           "Deterministic crash-point sweep: power-cut the device at every write boundary, \
            remount (journal replay), fsck, and verify every fsync'd byte. Recovery logs \
            must be byte-identical for the same seed.")
      Term.(const crash $ points_arg $ seeds_arg $ journal_off_arg)
  in
  Cmd.group
    ~default:Term.(const run $ profile_arg $ seed_arg $ log_arg)
    (Cmd.info "chaos" ~doc:"Fault injection: chaos soak and crash-point replay sweeps.")
    [ soak; crash_cmd ]

(* --- kprobe: run a workload with probe programs attached --- *)

let cmd_probe =
  let prog_arg =
    Arg.(
      value & opt_all string []
      & info [ "prog" ] ~docv:"PROG"
          ~doc:
            (Printf.sprintf
               "Probe program template to load at boot (repeatable). One of: %s."
               (String.concat ", " Kprobe.Templates.names)))
  in
  let run_sub =
    let run workload profile requests progs =
      let texts =
        List.map
          (fun n ->
            match Kprobe.Templates.by_name n with
            | Some t -> t
            | None ->
              Printf.printf "unknown probe program %s (try: %s)\n" n
                (String.concat ", " Kprobe.Templates.names);
              exit 2)
          progs
      in
      Aster.Kernel.boot_probes := texts;
      if not (run_workload workload profile requests) then exit 2;
      Printf.printf "--- /proc/kprobe/programs ---\n%s" (Kprobe.Registry.render_list ());
      List.iter
        (fun name ->
          match Kprobe.Registry.render_maps name with
          | None -> ()
          | Some maps -> Printf.printf "\n--- %s maps ---\n%s" name maps)
        (Kprobe.Registry.list ());
      (match Sim.Stats.by_prefix "watchdog." with
      | [] -> ()
      | wd ->
        Printf.printf "\n--- watchdog stats ---\n";
        List.iter (fun (n, c) -> Printf.printf "%-40s %d\n" n c) wd)
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run a workload with the always-on watchdogs (plus any --prog templates) \
            attached; print program listings, rendered maps, and watchdog stats.")
      Term.(const run $ workload_arg $ profile_arg $ requests_arg $ prog_arg)
  in
  let list_sub =
    let run () =
      Printf.printf "probe program templates (load with probe run --prog, or feed your \
                     own text to probe_load(2)):\n";
      List.iter (fun n -> Printf.printf "  %s\n" n) Kprobe.Templates.names
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List the built-in probe program templates.")
      Term.(const run $ const ())
  in
  let hang_sub =
    let run profile hog_ms =
      let o = Apps.Chaos.hang_run ~profile ~hog_ms () in
      Printf.printf "hang injection: %dms non-yielding hog, victim rc %d\n"
        o.Apps.Chaos.hog_ms o.Apps.Chaos.victim_rc;
      Printf.printf "watchdog.hung_task.fired: %d\n" o.Apps.Chaos.wd_fired;
      print_string o.Apps.Chaos.wd_maps;
      if o.Apps.Chaos.wd_fired = 0 then begin
        prerr_endline "hung-task watchdog missed the injected hang";
        exit 1
      end
    in
    let hog_arg =
      Arg.(
        value & opt int 100
        & info [ "hog-ms" ] ~docv:"MS"
            ~doc:"How long the injected hog runs without yielding.")
    in
    Cmd.v
      (Cmd.info "hang"
         ~doc:
           "Inject a non-yielding CPU hog and verify the always-on hung-task watchdog \
            catches the starved victim.")
      Term.(const run $ profile_arg $ hog_arg)
  in
  Cmd.group
    (Cmd.info "probe" ~doc:"kprobe: verified programmable probes with maps and watchdogs.")
    [ run_sub; list_sub; hang_sub ]

let cmd_syscalls =
  let run () =
    Printf.printf "advertised ABI surface: %d syscalls\n" Aster.Syscall_nr.registered_count;
    Printf.printf "implemented with real semantics: %d\n" (Aster.Syscalls.implemented_count ());
    List.iter
      (fun nr -> Printf.printf "  %4d %s\n" nr (Aster.Syscall_nr.name nr))
      (Aster.Syscalls.implemented_numbers ())
  in
  Cmd.v
    (Cmd.info "syscalls" ~doc:"List the syscall surface (implemented vs ENOSYS-stubbed).")
    Term.(const run $ const ())

let () =
  (* Make sure the dispatch table exists for `syscalls` without a boot. *)
  Aster.Syscalls.install ();
  let info = Cmd.info "asterinas_sim" ~doc:"Asterinas framekernel simulator." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ cmd_boot; cmd_run; cmd_trace; cmd_prof; cmd_span; cmd_chaos; cmd_probe;
            cmd_syscalls ]))
