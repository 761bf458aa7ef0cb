let generators : (string, unit -> string) Hashtbl.t = Hashtbl.create 16

let register name gen = Hashtbl.replace generators name gen

(* Writable proc files: a writer consumes the full written string as a
   control command ([echo sched,probe > /proc/ktrace] style). Files with
   a registered writer get mode 0o644 instead of 0o444. *)
let writers : (string, string -> (unit, int) result) Hashtbl.t = Hashtbl.create 4

let register_writer name fn = Hashtbl.replace writers name fn

(* [Proc_open] is one open file's view of [Proc_file name]: it holds the
   content generated by the last read at offset 0, and later reads of
   the same open file are served from that copy (single_open-style), so
   a chunked read is O(n) and never torn by counters moving between
   chunks. *)
type Vfs.priv += Proc_file of string | Proc_open of string * string option ref | Proc_root

let generate name =
  match Hashtbl.find_opt generators name with
  | None -> Error Errno.enoent
  | Some gen -> Ok (gen ())

let file_ops =
  {
    Vfs.default_ops with
    read =
      (fun i ~pos ~buf ~boff ~len ->
        let content =
          match i.Vfs.priv with
          | Proc_file name -> generate name
          | Proc_open (_, { contents = Some snap }) when pos > 0 -> Ok snap
          | Proc_open (name, snap) ->
            let r = generate name in
            snap := Result.to_option r;
            r
          | _ -> Error Errno.einval
        in
        Result.map
          (fun content ->
            let n = min len (String.length content - pos) in
            if n <= 0 then 0
            else begin
              Bytes.blit_string content pos buf boff n;
              n
            end)
          content);
    write =
      (fun i ~pos:_ ~buf ~boff ~len ->
        match i.Vfs.priv with
        | Proc_file name | Proc_open (name, _) -> (
          match Hashtbl.find_opt writers name with
          | None -> Error Errno.einval
          | Some fn -> (
            match fn (Bytes.sub_string buf boff len) with
            | Ok () -> Ok len
            | Error e -> Error e))
        | _ -> Error Errno.einval);
    open_file =
      (fun i ->
        match i.Vfs.priv with
        | Proc_file name -> { i with Vfs.priv = Proc_open (name, ref None) }
        | _ -> i);
  }

(* Inodes are generated on demand and cached per name so ino stays
   stable across lookups. *)
let file_cache : (string, Vfs.inode) Hashtbl.t = Hashtbl.create 16

let file_inode name =
  match Hashtbl.find_opt file_cache name with
  | Some i -> i
  | None ->
    let mode = if Hashtbl.mem writers name then 0o644 else 0o444 in
    let i = Vfs.make_inode ~fsname:"procfs" ~kind:Vfs.Reg ~mode ~ops:file_ops () in
    i.Vfs.priv <- Proc_file name;
    Hashtbl.replace file_cache name i;
    i

(* Per-process directories: /proc/<pid>/{status,comm}. *)
let pid_dir_cache : (int, Vfs.inode) Hashtbl.t = Hashtbl.create 16

let pid_status pid () =
  match Process.by_pid pid with
  | None -> ""
  | Some p ->
    Printf.sprintf "Name:\t%s\nPid:\t%d\nPPid:\t%d\nState:\tR (running)\nSigPnd:\t%08x\n"
      (Process.comm p) pid (Process.parent_pid p)
      (Signal.pending (Process.signals p))

let pid_comm pid () =
  match Process.by_pid pid with None -> "" | Some p -> Process.comm p ^ "\n"

(* CLK_TCK = 100: /proc times are reported in 10ms ticks. *)
let cycles_per_tick = Int64.of_int (Sim.Clock.cycles_per_us * 10_000)

let ticks c = Int64.div c cycles_per_tick

(* /proc/<pid>/stat, the first 17 of Linux's fields (through cstime):
   what matters here is utime (field 14) and stime (field 15). *)
let pid_stat pid () =
  match Process.by_pid pid with
  | None -> ""
  | Some p ->
    let ut, st =
      match Process.task p with Some t -> Ostd.Task.cpu_times t | None -> (0L, 0L)
    in
    Printf.sprintf "%d (%s) R %d 0 0 0 0 0 0 0 0 0 %Ld %Ld 0 0\n" pid (Process.comm p)
      (Process.parent_pid p) (ticks ut) (ticks st)

let pid_schedstat pid () =
  match Process.by_pid pid with
  | None -> ""
  | Some p -> (
    match Process.task p with
    | None -> "0 0 0\n"
    | Some t ->
      let ut, st = Ostd.Task.cpu_times t in
      let cnt, sum, _ = Ostd.Task.sched_delay t in
      (* Linux schedstat: cputime_ns rundelay_ns timeslices. *)
      let to_ns c = Int64.div (Int64.mul c 1000L) (Int64.of_int Sim.Clock.cycles_per_us) in
      Printf.sprintf "%Ld %Ld %d\n" (to_ns (Int64.add ut st)) (to_ns sum) cnt)

(* /proc/<pid>/fdinfo: one line per open descriptor; epoll fds expand
   to their interest/ready state the way Linux's fdinfo prints
   "tfd: ... events: ... data: ..." lines. Rendering folds the fd
   table cost-free — observability must not perturb the schedule. *)
let pid_fdinfo pid () =
  match Process.by_pid pid with
  | None -> ""
  | Some p ->
    let desc_name f =
      match f.File.desc with
      | File.Inode_file _ -> "file"
      | File.Pipe_read _ -> "pipe:r"
      | File.Pipe_write _ -> "pipe:w"
      | File.Epoll _ -> "epoll"
      | File.Socket s -> (
        match s.File.st with
        | File.S_unbound -> "sock:unbound"
        | File.S_tcp_listener _ -> "sock:tcp-listen"
        | File.S_tcp_conn _ -> "sock:tcp"
        | File.S_udp _ -> "sock:udp"
        | File.S_unix_listener _ -> "sock:unix-listen"
        | File.S_unix_conn _ -> "sock:unix")
    in
    let rows =
      File.Table.fold (Process.fdt p)
        (fun fd f acc ->
          let line =
            Printf.sprintf "fd: %d flags: %o refs: %d type: %s\n" fd f.File.flags f.File.refs
              (desc_name f)
          in
          let extra = match f.File.desc with File.Epoll e -> Epoll.render e | _ -> "" in
          (fd, line ^ extra) :: acc)
        []
    in
    let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
    String.concat "" (List.map snd rows)

let pid_dir pid =
  match Hashtbl.find_opt pid_dir_cache pid with
  | Some d -> d
  | None ->
    let status_name = Printf.sprintf "pid.%d.status" pid in
    let comm_name = Printf.sprintf "pid.%d.comm" pid in
    let stat_name = Printf.sprintf "pid.%d.stat" pid in
    let schedstat_name = Printf.sprintf "pid.%d.schedstat" pid in
    let fdinfo_name = Printf.sprintf "pid.%d.fdinfo" pid in
    register status_name (pid_status pid);
    register comm_name (pid_comm pid);
    register stat_name (pid_stat pid);
    register schedstat_name (pid_schedstat pid);
    register fdinfo_name (pid_fdinfo pid);
    let ops =
      {
        Vfs.default_ops with
        lookup =
          (fun _ name ->
            match name with
            | "status" -> Some (file_inode status_name)
            | "comm" -> Some (file_inode comm_name)
            | "stat" -> Some (file_inode stat_name)
            | "schedstat" -> Some (file_inode schedstat_name)
            | "fdinfo" -> Some (file_inode fdinfo_name)
            | _ -> None);
        readdir =
          (fun _ ->
            [
              ("status", file_inode status_name);
              ("comm", file_inode comm_name);
              ("stat", file_inode stat_name);
              ("schedstat", file_inode schedstat_name);
              ("fdinfo", file_inode fdinfo_name);
            ]);
      }
    in
    let d = Vfs.make_inode ~fsname:"procfs" ~kind:Vfs.Dir ~mode:0o555 ~ops () in
    Hashtbl.replace pid_dir_cache pid d;
    d

(* --- /proc/kprobe: loaded probe programs ----------------------------
   kprobe/programs       one-line-per-program listing (+ last_error)
   kprobe/<name>/maps    rendered map contents of a loaded program
   kprobe/<name>/insns   disassembly of its verified bytecode *)

let kprobe_prog_cache : (string, Vfs.inode) Hashtbl.t = Hashtbl.create 8

let kprobe_prog_dir pname =
  match Hashtbl.find_opt kprobe_prog_cache pname with
  | Some d -> d
  | None ->
    let maps_name = "kprobe." ^ pname ^ ".maps" in
    let insns_name = "kprobe." ^ pname ^ ".insns" in
    (* the generators query the registry at read time, so a program
       unloaded after lookup just reads back empty *)
    register maps_name (fun () ->
        match Kprobe.Registry.render_maps pname with Some s -> s | None -> "");
    register insns_name (fun () ->
        match Kprobe.Registry.render_prog pname with Some s -> s | None -> "");
    let ops =
      {
        Vfs.default_ops with
        lookup =
          (fun _ name ->
            match name with
            | "maps" -> Some (file_inode maps_name)
            | "insns" -> Some (file_inode insns_name)
            | _ -> None);
        readdir =
          (fun _ -> [ ("maps", file_inode maps_name); ("insns", file_inode insns_name) ]);
      }
    in
    let d = Vfs.make_inode ~fsname:"procfs" ~kind:Vfs.Dir ~mode:0o555 ~ops () in
    Hashtbl.replace kprobe_prog_cache pname d;
    d

let kprobe_dir_ops =
  {
    Vfs.default_ops with
    lookup =
      (fun _ name ->
        if name = "programs" then Some (file_inode "kprobe.programs")
        else
          match Kprobe.Registry.find name with
          | Some _ -> Some (kprobe_prog_dir name)
          | None -> None);
    readdir =
      (fun _ ->
        ("programs", file_inode "kprobe.programs")
        :: List.map (fun n -> (n, kprobe_prog_dir n)) (Kprobe.Registry.list ()));
  }

let kprobe_dir_cache : Vfs.inode option ref = ref None

let kprobe_dir () =
  match !kprobe_dir_cache with
  | Some d -> d
  | None ->
    let d =
      Vfs.make_inode ~fsname:"procfs" ~kind:Vfs.Dir ~mode:0o555 ~ops:kprobe_dir_ops ()
    in
    kprobe_dir_cache := Some d;
    d

let root_ops =
  {
    Vfs.default_ops with
    lookup =
      (fun _ name ->
        if name = "kprobe" then Some (kprobe_dir ())
        else if Hashtbl.mem generators name then Some (file_inode name)
        else
          match int_of_string_opt name with
          | Some pid when Process.by_pid pid <> None -> Some (pid_dir pid)
          | Some _ | None -> None);
    readdir =
      (fun _ ->
        ("kprobe", kprobe_dir ())
        :: (Hashtbl.fold (fun name _ acc -> (name, file_inode name) :: acc) generators []
           |> List.sort compare));
  }

(* /proc/ktrace accepts mask commands on write (whitespace-trimmed,
   case-insensitive):
     "none" | "0"          disable every category
     "all"                 enable every category
     "<decimal>"           set the raw mask value (unknown bits ignored)
     "cat1,cat2,..."       enable exactly the named categories
     "+cat" / "-cat" ...   enable/disable incrementally
   Malformed input (unknown names, negative numbers, mixed forms) fails
   with EINVAL and leaves the mask untouched. *)
let ktrace_write raw =
  let s = String.trim (String.lowercase_ascii raw) in
  if s = "" then Error Errno.einval
  else if s = "none" || s = "0" then begin
    Sim.Trace.disable_all ();
    Ok ()
  end
  else if s = "all" then begin
    Sim.Trace.enable_all ();
    Ok ()
  end
  else
    match int_of_string_opt s with
    | Some n when n >= 0 ->
      Sim.Trace.set_mask n;
      Ok ()
    | Some _ -> Error Errno.einval
    | None ->
      let toks =
        String.split_on_char ',' s
        |> List.concat_map (String.split_on_char ' ')
        |> List.filter (fun t -> t <> "")
      in
      let incr_tok t = String.length t > 1 && (t.[0] = '+' || t.[0] = '-') in
      if toks = [] then Error Errno.einval
      else if List.for_all incr_tok toks then begin
        (* validate the whole command before applying any part of it *)
        let parsed =
          List.map
            (fun t ->
              match Sim.Trace.category_of_string (String.sub t 1 (String.length t - 1)) with
              | Some c -> Some (t.[0] = '+', c)
              | None -> None)
            toks
        in
        if List.mem None parsed then Error Errno.einval
        else begin
          List.iter
            (function
              | Some (true, c) -> Sim.Trace.enable c
              | Some (false, c) -> Sim.Trace.disable c
              | None -> ())
            parsed;
          Ok ()
        end
      end
      else begin
        let cats = List.map Sim.Trace.category_of_string toks in
        if List.mem None cats then Error Errno.einval
        else begin
          Sim.Trace.disable_all ();
          List.iter (function Some c -> Sim.Trace.enable c | None -> ()) cats;
          Ok ()
        end
      end

(* /proc/kstat accepts "reset" on write: zero every counter and
   histogram. Same validate-before-apply contract as the ktrace writer:
   anything else fails with EINVAL and touches nothing. *)
let kstat_write raw =
  match String.trim (String.lowercase_ascii raw) with
  | "reset" ->
    Sim.Stats.reset ();
    Sim.Hist.reset ();
    Ok ()
  | _ -> Error Errno.einval

let standard_entries () =
  register_writer "ktrace" ktrace_write;
  register_writer "kstat" kstat_write;
  register "kprobe.programs" (fun () -> Kprobe.Registry.render_list ());
  register "meminfo" (fun () ->
      let total = Ostd.Frame.total_frames () * 4 in
      Printf.sprintf "MemTotal: %d kB\nMemFree: (dynamic)\n" total);
  register "uptime" (fun () -> Printf.sprintf "%.2f\n" (Ktime.seconds ()));
  register "version" (fun () ->
      "Asterinas-OCaml framekernel reproduction (Linux ABI compatible)\n");
  register "syscalls" (fun () ->
      String.concat ""
        (List.map (fun (n, c) -> Printf.sprintf "%s %d\n" n c) (Strace.top 50)));
  (* --- ktrace observability surface --- *)
  register "ktrace" (fun () ->
      let cats =
        match Sim.Trace.enabled_categories () with
        | [] -> "none"
        | cs -> String.concat "," (List.map Sim.Trace.category_name cs)
      in
      let header =
        Printf.sprintf "# ktrace: %d/%d buffered, %d dropped, %d total; enabled: %s\n"
          (Sim.Trace.length ()) (Sim.Trace.capacity ()) (Sim.Trace.dropped ())
          (Sim.Trace.total ()) cats
      in
      let body = Sim.Trace.render () in
      if body = "" then header else header ^ body ^ "\n");
  register "kstat" (fun () ->
      let counters =
        List.map (fun (n, c) -> Printf.sprintf "%-40s %d\n" n c) (Sim.Stats.counters ())
      in
      let hists =
        match Sim.Hist.all () with
        | [] -> []
        | hs ->
          ("\n" ^ Sim.Hist.summary_header ^ "\n")
          :: List.map (fun (n, h) -> Sim.Hist.summary_line n h ^ "\n") hs
      in
      String.concat "" (counters @ hists));
  (* --- segmentation-offload observability surface (ethtool -k style) --- *)
  register "net.offloads" (fun () ->
      let p = Sim.Profile.get () in
      let b k = if k then "on" else "off" in
      let g = Sim.Stats.get in
      String.concat ""
        [
          Printf.sprintf "tcp-segmentation-offload: %s (gso_max_size %d)\n"
            (b p.Sim.Profile.tcp_gso) Packet.gso_max_size;
          Printf.sprintf "generic-receive-offload: %s\n" (b p.Sim.Profile.net_gro);
          Printf.sprintf "tx-checksumming: %s\n" (b p.Sim.Profile.csum_tx_offload);
          Printf.sprintf "rx-checksumming: %s\n" (b p.Sim.Profile.csum_rx_offload);
          Printf.sprintf "sendfile-zero-copy: %s\n" (b p.Sim.Profile.sendfile_zero_copy);
          Printf.sprintf "tso_wire_frames %d\n" (g "virtio_net.tso_frames");
          Printf.sprintf "gro_merged %d\n" (g "net.gro_merged");
          Printf.sprintf "bytes_copied %d\n" (g "net.bytes_copied");
          Printf.sprintf "zc_pin %d\nzc_unpin %d\n" (g "net.zc_pin") (g "net.zc_unpin");
        ]);
  (* --- kspan observability surface --- *)
  register "kspan" (fun () -> Sim.Span.render_proc ());
  (* --- kprof observability surface --- *)
  register "stat" (fun () ->
      let ut, st = Ostd.Task.aggregate_cpu_times () in
      let elapsed = Sim.Clock.now () in
      let busy = Int64.add ut st in
      let idle = if Int64.compare elapsed busy > 0 then Int64.sub elapsed busy else 0L in
      String.concat ""
        [
          Printf.sprintf "cpu  %Ld 0 %Ld %Ld 0 0 0 0 0 0\n" (ticks ut) (ticks st)
            (ticks idle);
          Printf.sprintf "ctxt %d\n" (Ostd.Task.context_switches ());
          Printf.sprintf "btime %.0f\n" Ktime.boot_epoch_seconds;
          Printf.sprintf "processes %d\n" (Process.spawned_count ());
          Printf.sprintf "procs_running %d\n" (Process.alive_count ());
        ]);
  register "schedstat" (fun () ->
      let per_pid =
        List.filter_map
          (fun p ->
            match Process.task p with
            | None -> None
            | Some t ->
              let cnt, sum, mx = Ostd.Task.sched_delay t in
              let nv, niv = Ostd.Task.ctx_switches t in
              Some
                (Printf.sprintf "pid %d comm %s dispatches %d delay_us %.1f max_us %.1f nvcsw %d nivcsw %d\n"
                   (Process.pid p) (Process.comm p) cnt (Sim.Clock.to_us sum)
                   (Sim.Clock.to_us mx) nv niv))
          (Process.all ())
      in
      String.concat ""
        (Printf.sprintf "version 15\nctxt %d\n" (Ostd.Task.context_switches ()) :: per_pid));
  register "lock_stat" (fun () ->
      let counters = Sim.Stats.by_prefix "lock." in
      let hists =
        List.filter
          (fun (n, _) -> String.length n >= 5 && String.sub n 0 5 = "lock.")
          (Sim.Hist.all ())
      in
      if counters = [] && hists = [] then "lock_stat version 0.4\n"
      else
        String.concat ""
          ("lock_stat version 0.4\n"
           :: (List.map (fun (n, c) -> Printf.sprintf "%-40s %d\n" n c) counters
              @
              match hists with
              | [] -> []
              | hs ->
                ("\n" ^ Sim.Hist.summary_header ^ "\n")
                :: List.map (fun (n, h) -> Sim.Hist.summary_line n h ^ "\n") hs)));
  register "kprof" (fun () ->
      let header =
        Printf.sprintf "# kprof: enabled=%b elapsed=%Ld attributed=%Ld conserved=%b\n"
          (Sim.Prof.enabled ()) (Sim.Prof.elapsed ()) (Sim.Prof.total_attributed ())
          (Sim.Prof.conserved ())
      in
      let body = Sim.Prof.render_folded () in
      if body = "" then header else header ^ body ^ "\n");
  register "faults" (fun () ->
      let quartet =
        List.map (fun (k, v) -> Printf.sprintf "%-12s %d\n" k v) (Sim.Stats.fault_report ())
      in
      let sites =
        match Sim.Stats.by_prefix "fault.injected." with
        | [] -> []
        | ss ->
          "\nper-site injections:\n"
          :: List.map
               (fun (k, v) ->
                 let site =
                   String.sub k (String.length "fault.injected.")
                     (String.length k - String.length "fault.injected.")
                 in
                 Printf.sprintf "%-24s %d\n" site v)
               ss
      in
      String.concat "" (quartet @ sites))

let create_root () =
  Hashtbl.reset file_cache;
  Hashtbl.reset pid_dir_cache;
  Hashtbl.reset kprobe_prog_cache;
  kprobe_dir_cache := None;
  standard_entries ();
  let root = Vfs.make_inode ~fsname:"procfs" ~kind:Vfs.Dir ~mode:0o555 ~ops:root_ops () in
  root.Vfs.priv <- Proc_root;
  root
