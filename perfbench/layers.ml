(* Per-layer metrics for the traced run, read from outside the kernel
   through its public observers: kprof folded stacks, kspan critical
   paths, Stats counters, Sim.Trace attach points, IOMMU counters and
   the wire endpoint.

   The window is the heavy step (the whole heavy phase on db-txn):
   counters are differences over it, so boot, preload, the light step
   and the rate search are excluded. Every observer here charges no
   virtual cycles and draws no randomness, which the zero-cost check
   in perfbench.ml verifies end to end. *)

open Common

let tracing = ref false

(* The syscalls broken out by number, and whose host cost is timed. *)
let nrs =
  [ "open"; "accept4"; "sendfile"; "read"; "write"; "epoll_wait"; "epoll_ctl"; "pread64";
    "pwrite64"; "fsync" ]

let span_segs = [ "cpu"; "net"; "blk.queue"; "blk.service"; "jbd.commit"; "sched.delay"; "blocked" ]

(* Every metric name this module reports, with its unit, in output
   order. Workloads where a layer does no work report 0 for it. *)
let metric_units =
  [ ("apps.user_cycles_per_op", "cycles/op");
    ("aster.syscalls.calls_per_op", "calls/op");
    ("aster.syscalls.cycles_per_op", "cycles/op");
    ("aster.syscalls.lat_p99_us", "us");
    ("aster.syscalls.eagain_frac", "ratio") ]
  @ List.map (fun nr -> ("aster.syscalls." ^ nr ^ ".cycles_per_op", "cycles/op")) nrs
  @ [ ("aster.epoll.waits_per_op", "calls/op");
      ("aster.epoll.scan_per_wait", "fds/wait");
      ("aster.epoll.wakeups_per_wait", "count/wait");
      ("aster.net.cycles_per_op", "cycles/op");
      ("aster.net.doorbells_per_op", "count/op");
      ("aster.net.irqs_per_op", "count/op");
      ("aster.net.napi_polls_per_op", "count/op");
      ("aster.net.tx_frames_per_op", "frames/op");
      ("aster.net.bytes_copied_per_body_byte", "ratio");
      ("aster.net.retries_per_op", "count/op");
      ("aster.net.listen_overflow", "count");
      ("aster.fs.ext2_cycles_per_op", "cycles/op");
      ("aster.fs.jbd_cycles_per_op", "cycles/op");
      ("aster.fs.jbd_commits_per_op", "count/op");
      ("aster.fs.readahead_hit_ratio", "ratio");
      ("aster.block.bios_per_op", "bios/op");
      ("aster.block.merge_ratio", "ratio");
      ("aster.block.doorbells_per_op", "count/op");
      ("aster.block.flush_fua_per_op", "count/op");
      ("aster.block.lat_p50_us", "us");
      ("aster.block.lat_p99_us", "us");
      ("aster.block.retries", "count");
      ("ostd.ctx_switches_per_op", "count/op");
      ("ostd.runq_wait_p99_us", "us");
      ("ostd.irqs_per_op", "count/op");
      ("ostd.irq_cycles_per_op", "cycles/op");
      ("ostd.idle_frac", "ratio");
      ("ostd.buddy_pcpu_hit_ratio", "ratio");
      ("ostd.live_frames_per_op", "frames/op");
      ("machine.iommu.iotlb_miss_ratio", "ratio");
      ("machine.net.wire_frames_per_op", "frames/op") ]
  @ List.map (fun s -> ("span.p99." ^ s ^ "_frac", "ratio")) span_segs
  @ [ ("host.alloc_words_per_op", "words/op");
      ("host.major_words_per_op", "words/op");
      ("host.major_gcs", "count");
      ("host.gc_time_frac", "ratio");
      ("host.s_per_virtual_s", "s/s") ]
  @ List.map (fun nr -> ("host.syscall_ns." ^ nr, "ns")) nrs
  @ [ ("bench.gen_lag_us_max", "us");
      ("bench.backlog_end", "ops");
      ("bench.tracing_overhead", "ratio");
      ("bench.fail_frac", "ratio") ]

(* --- In-memory trace records: [point; vcycle; host_ns; f0..f3] --- *)

let stride = 7

let recs = ref (Array.make (stride * 65536) 0)

let nrec = ref 0

let push ap a =
  if (!nrec + 1) * stride > Array.length !recs then begin
    let bigger = Array.make (2 * Array.length !recs) 0 in
    Array.blit !recs 0 bigger 0 (!nrec * stride);
    recs := bigger
  end;
  let r = !recs and o = !nrec * stride in
  r.(o) <- ap;
  r.(o + 1) <- Int64.to_int (Sim.Clock.now ());
  r.(o + 2) <- Int64.to_int (host_ns ());
  for j = 0 to 3 do
    r.(o + 3 + j) <- (if j < Array.length a then Int64.to_int a.(j) else 0)
  done;
  incr nrec

let points =
  Sim.Trace.
    [ P_syscall_enter; P_syscall_exit; P_blk_issue; P_blk_complete; P_net_tx; P_sched_switch;
      P_sched_wakeup; P_irq_entry; P_jbd_commit ]

let point_id ap =
  let rec go i = function
    | [] -> -1
    | p :: rest -> if p = ap then i else go (i + 1) rest
  in
  go 0 points

let consumer = "perfbench"

(* --- Window state --- *)

type ctx = {
  server : string; (* kprof context prefix of the server's tasks *)
  hstack : Aster.Netstack.t option; (* host stack, whose sends also fire P_net_tx *)
  endpoint : Machine.Wire.endpoint option;
}

type window = {
  ctx : ctx;
  stats0 : (string, int) Hashtbl.t;
  iommu0 : int * int;
  host_tx0 : int;
  wire0 : int;
  frames0 : int;
}

let win : window option ref = ref None

let snapshot_stats () =
  let t = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace t k v) (Sim.Stats.counters ());
  t

let host_tx ctx = match ctx.hstack with Some s -> Aster.Netstack.packets_tx s | None -> 0

let wire_sent ctx = match ctx.endpoint with Some e -> Machine.Wire.packets_sent e | None -> 0

let window_start ctx =
  if !tracing then begin
    nrec := 0;
    List.iter
      (fun ap ->
        let id = point_id ap in
        Sim.Trace.attach ap ~name:consumer (fun a -> push id a))
      points;
    Sim.Prof.enable ();
    Sim.Span.clear ();
    Sim.Span.enable ();
    Sim.Span.set_auto true;
    win :=
      Some
        {
          ctx;
          stats0 = snapshot_stats ();
          iommu0 = (Machine.Iommu.hits (), Machine.Iommu.misses ());
          host_tx0 = host_tx ctx;
          wire0 = wire_sent ctx;
          frames0 = Ostd.Frame.live_handles ();
        }
  end

(* Cycles by layer over kprof's folded stacks ("ctx;a;b"). A layer's
   cycles are its self time: the stacks whose innermost frame is the
   layer's scope, so the children it calls (ext2 under a syscall, blk
   under jbd) count for the children. The per-syscall breakdown is the
   exception: it is inclusive, the whole cost of each call. *)
let prof_rollup ~server =
  let total = ref 0L and idle = ref 0L and user = ref 0L in
  let net = ref 0L and ext2 = ref 0L and jbd = ref 0L and irq = ref 0L and sys = ref 0L in
  let by_sys : (string, int64 ref) Hashtbl.t = Hashtbl.create 32 in
  let add r c = r := Int64.add !r c in
  let is_irq f =
    String.length f > 3 && String.sub f 0 3 = "irq" && f.[3] >= '0' && f.[3] <= '9'
  in
  let is_sys f = String.starts_with ~prefix:"syscall." f in
  List.iter
    (fun (key, c) ->
      add total c;
      match String.split_on_char ';' key with
      | [] -> ()
      | [ root ] ->
        if root = "idle/0" then add idle c
        else if String.starts_with ~prefix:server root then add user c
      | _ :: frames ->
        (match List.nth frames (List.length frames - 1) with
        (* Network protocol work, TX/RX and NAPI all fold under "net";
           the softirq frame is the block completion bottom half. *)
        | "net" -> add net c
        | "ext2" -> add ext2 c
        | "jbd" -> add jbd c
        | f when is_irq f -> add irq c
        | f when is_sys f -> add sys c
        | _ -> ());
        match List.find_opt is_sys frames with
        | Some f ->
          let name = String.sub f 8 (String.length f - 8) in
          (match Hashtbl.find_opt by_sys name with
          | Some r -> add r c
          | None -> Hashtbl.add by_sys name (ref c))
        | None -> ())
    (Sim.Prof.folded ());
  let f r = Int64.to_float !r in
  let sysc name = match Hashtbl.find_opt by_sys name with Some r -> f r | None -> 0. in
  (f total, f idle, f user, f net, f ext2, f jbd, f irq, f sys, sysc)

(* Critical-path share of each segment class for the p99 span of the
   workload's dominant class. *)
let span_fracs () =
  match Option.bind (Sim.Span.dominant_class ()) Sim.Span.class_p99 with
  | None -> List.map (fun s -> (s, 0.)) span_segs
  | Some info ->
    let dur = Int64.to_float info.Sim.Span.i_dur in
    let share seg =
      List.fold_left
        (fun acc (label, c) ->
          let hit =
            if seg = "cpu" || seg = "net" then
              String.length label > String.length seg
              && String.sub label 0 (String.length seg + 1) = seg ^ "."
            else label = seg
          in
          if hit then acc +. Int64.to_float c else acc)
        0. info.Sim.Span.i_path
    in
    List.map (fun s -> (s, ratio (share s) dur)) span_segs

(* Close the window: detach, reduce the records and counters to the
   per-layer metrics, and restore the untraced configuration. Returns
   the metrics and the host ns per syscall samples. *)
let window_end ~ops ~body_bytes =
  match !win with
  | None -> []
  | Some w ->
    win := None;
    Sim.Trace.detach_name consumer;
    let opsf = fi (max 1 ops) in
    let per_op x = x /. opsf in
    let stats1 = snapshot_stats () in
    let d name =
      fi
        ((try Hashtbl.find stats1 name with Not_found -> 0)
        - try Hashtbl.find w.stats0 name with Not_found -> 0)
    in
    let d_prefix p =
      Hashtbl.fold
        (fun k v acc ->
          if String.length k >= String.length p && String.sub k 0 (String.length p) = p then
            acc + v - (try Hashtbl.find w.stats0 k with Not_found -> 0)
          else acc)
        stats1 0
      |> fi
    in
    (* Reduce the trace records. *)
    let count = Array.make (List.length points) 0 in
    let sys_lat = ref [] and eagain = ref 0 and exits = ref 0 in
    let blk_lat = ref [] and runq = ref [] and tx_seg = ref 0 in
    let switches = ref 0 in
    let enter : (int, int * int * int) Hashtbl.t = Hashtbl.create 64 in
    let wake_at : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let host_sys : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
    let id = point_id in
    let r = !recs in
    for k = 0 to !nrec - 1 do
      let o = k * stride in
      let p = r.(o) and vc = r.(o + 1) and hn = r.(o + 2) in
      let f j = r.(o + 3 + j) in
      count.(p) <- count.(p) + 1;
      if p = id Sim.Trace.P_syscall_enter then Hashtbl.replace enter (f 1) (f 0, hn, !switches)
      else if p = id Sim.Trace.P_syscall_exit then begin
        incr exits;
        sys_lat := (fi (f 2) /. 1000.) :: !sys_lat;
        if f 1 = -Aster.Errno.eagain then incr eagain;
        (* Host cost of a call that stayed on CPU: enter to exit on the
           same task with no context switch in between. *)
        match Hashtbl.find_opt enter (f 3) with
        | Some (nr, h0, sw0) when nr = f 0 && sw0 = !switches ->
          let name = Aster.Syscall_nr.name nr in
          if List.mem name nrs then begin
            let sample = fi (hn - h0) in
            match Hashtbl.find_opt host_sys name with
            | Some l -> l := sample :: !l
            | None -> Hashtbl.add host_sys name (ref [ sample ])
          end
        | _ -> ()
      end
      else if p = id Sim.Trace.P_blk_complete then blk_lat := (fi (f 3) /. 1000.) :: !blk_lat
      else if p = id Sim.Trace.P_net_tx then tx_seg := !tx_seg + f 1
      else if p = id Sim.Trace.P_sched_wakeup then Hashtbl.replace wake_at (f 0) vc
      else if p = id Sim.Trace.P_sched_switch then begin
        incr switches;
        match Hashtbl.find_opt wake_at (f 1) with
        | Some t ->
          Hashtbl.remove wake_at (f 1);
          runq := us_of_cycles (Int64.of_int (vc - t)) :: !runq
        | None -> ()
      end
    done;
    let cnt ap = fi count.(id ap) in
    let p99 l = match l with [] -> 0. | _ -> pct (sorted (Array.of_list l)) 99. in
    let p50 l = match l with [] -> 0. | _ -> pct (sorted (Array.of_list l)) 50. in
    let total, idle, user, net, ext2, jbd, irq, sys, sysc = prof_rollup ~server:w.ctx.server in
    let h1, m1 = (Machine.Iommu.hits (), Machine.Iommu.misses ()) in
    let h0, m0 = w.iommu0 in
    let dh = fi (h1 - h0) and dm = fi (m1 - m0) in
    let guest_tx = fi !tx_seg -. fi (host_tx w.ctx - w.host_tx0) in
    let wire = fi (wire_sent w.ctx - w.wire0) +. guest_tx +. d "virtio_net.tso_frames" in
    let bios = cnt Sim.Trace.P_blk_issue in
    let waits = d "epoll.wait_calls" in
    let metrics =
      [ ("apps.user_cycles_per_op", per_op user);
        ("aster.syscalls.calls_per_op", per_op (fi !exits));
        ("aster.syscalls.cycles_per_op", per_op sys);
        ("aster.syscalls.lat_p99_us", p99 !sys_lat);
        ("aster.syscalls.eagain_frac", ratio (fi !eagain) (fi !exits)) ]
      @ List.map (fun nr -> ("aster.syscalls." ^ nr ^ ".cycles_per_op", per_op (sysc nr))) nrs
      @ [ ("aster.epoll.waits_per_op", per_op waits);
          ("aster.epoll.scan_per_wait", ratio (d "epoll.scan_work") waits);
          ("aster.epoll.wakeups_per_wait", ratio (d "epoll.wakeups") waits);
          ("aster.net.cycles_per_op", per_op net);
          ("aster.net.doorbells_per_op", per_op (d "net.doorbell"));
          ("aster.net.irqs_per_op", per_op (d "net.irq"));
          ("aster.net.napi_polls_per_op", per_op (d "net.napi_poll"));
          ("aster.net.tx_frames_per_op", per_op guest_tx);
          ("aster.net.bytes_copied_per_body_byte", ratio (d "net.bytes_copied") (fi body_bytes));
          ("aster.net.retries_per_op", per_op (d_prefix "degrade.retried.tcp_"));
          ("aster.net.listen_overflow", d "tcp.listen_overflow");
          ("aster.fs.ext2_cycles_per_op", per_op ext2);
          ("aster.fs.jbd_cycles_per_op", per_op jbd);
          ("aster.fs.jbd_commits_per_op", per_op (cnt Sim.Trace.P_jbd_commit));
          ( "aster.fs.readahead_hit_ratio",
            ratio (d "blk.readahead.hit") (d "blk.readahead.hit" +. d "blk.readahead.miss") );
          ("aster.block.bios_per_op", per_op bios);
          ("aster.block.merge_ratio", ratio (d "blk.merge") bios);
          ("aster.block.doorbells_per_op", per_op (d "blk.doorbell"));
          ("aster.block.flush_fua_per_op", per_op (d "blk.flush" +. d "blk.fua"));
          ("aster.block.lat_p50_us", p50 !blk_lat);
          ("aster.block.lat_p99_us", p99 !blk_lat);
          ("aster.block.retries", d "degrade.retried.blk_bio");
          ("ostd.ctx_switches_per_op", per_op (fi !switches));
          ("ostd.runq_wait_p99_us", p99 !runq);
          ("ostd.irqs_per_op", per_op (cnt Sim.Trace.P_irq_entry));
          ("ostd.irq_cycles_per_op", per_op irq);
          ("ostd.idle_frac", ratio idle total);
          ( "ostd.buddy_pcpu_hit_ratio",
            ratio (d "buddy.pcpu_hit") (d "buddy.pcpu_hit" +. d "buddy.pcpu_miss") );
          (* Frames still held at the end of the window that were not at
             its start: page cache growth, or a leak. *)
          ("ostd.live_frames_per_op", per_op (fi (Ostd.Frame.live_handles () - w.frames0)));
          ("machine.iommu.iotlb_miss_ratio", ratio dm (dh +. dm));
          ("machine.net.wire_frames_per_op", per_op wire) ]
      @ List.map (fun (s, v) -> ("span.p99." ^ s ^ "_frac", v)) (span_fracs ())
      @ List.map
          (fun nr ->
            ( "host.syscall_ns." ^ nr,
              match Hashtbl.find_opt host_sys nr with Some l -> median !l | None -> 0. ))
          nrs
    in
    Sim.Prof.reset ();
    Sim.Span.clear ();
    Sim.Span.disable ();
    Sim.Span.set_auto false;
    metrics

(* Write the window's raw records (tab-separated, one per line). *)
let write_records path =
  let oc = open_out path in
  output_string oc "point\tvcycle\thost_ns\tf0\tf1\tf2\tf3\n";
  let r = !recs in
  for k = 0 to !nrec - 1 do
    let o = k * stride in
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%d\t%d\n"
      (Sim.Trace.attach_name (List.nth points r.(o)))
      r.(o + 1) r.(o + 2) r.(o + 3) r.(o + 4) r.(o + 5) r.(o + 6)
  done;
  close_out oc
