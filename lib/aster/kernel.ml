type t = {
  devices : Machine.Board.devices;
  stack : Netstack.t;
  tcp : Tcp.engine;
  udp : Udp.engine;
}

let guest_ip = Packet.ip_of_string "10.0.2.15"

let host_ip = Packet.ip_of_string "10.0.2.2"

(* Extra probe program texts loaded right after the watchdogs on every
   boot — the CLI's `probe run --prog` stages template text here before
   the workload boots its kernel. A staged program that fails the
   verifier is a caller bug, so be loud. *)
let boot_probes : string list ref = ref []

let reset_services () =
  Vfs.reset ();
  Netstack.reset_registry ();
  Block.reset ();
  Jbd.reset ();
  Unix_sock.reset_namespace ();
  Strace.reset ();
  Process.reset ();
  Kprobe.Registry.reset ();
  Epoll.reset_ids ();
  Ktime.stop_ticker ()

let mount_filesystems ~format_disk =
  let root = Ramfs.create_root () in
  Vfs.mount_root root;
  (* Mountpoint directories. *)
  List.iter
    (fun name ->
      match root.Vfs.ops.Vfs.create root name Vfs.Dir ~mode:0o755 with
      | Ok _ -> ()
      | Error e -> Ostd.Panic.panicf "boot: mkdir /%s failed (%d)" name e)
    [ "proc"; "ext2"; "tmp"; "dev" ];
  (match root.Vfs.ops.Vfs.lookup root "dev" with
  | Some dev_dir -> Devfs.populate dev_dir
  | None -> ());
  Vfs.mount "/proc" (Procfs.create_root ());
  if format_disk then Ext2.mkfs ();
  Vfs.mount "/ext2" (Ext2.mount ())

let boot ?profile ?(frames = 16384) ?disk ?(disk_mb = 64) ?(format_disk = true) () =
  (match profile with Some p -> Sim.Profile.set p | None -> ());
  Ostd.Boot.init ~frames ();
  reset_services ();
  Sched_policy.install ();
  ignore (Buddy.install ());
  Slab_policy.install_global_heap ();
  let devices = Machine.Board.attach_default_devices ?disk ~disk_mb () in
  Softirq.install ();
  Virtio_blk_drv.init ();
  let stack = Netstack.create ~ip:guest_ip ~host:false in
  Virtio_net_drv.init stack;
  let tcp =
    Tcp.create_engine stack ~cc:(Sim.Profile.get ()).Sim.Profile.tcp_congestion_control
  in
  let udp = Udp.create_engine stack in
  Syscalls.init_net stack tcp udp;
  Syscalls.install ();
  (* Always-on anomaly watchdogs: hung-task, syscall-latency SLO and
     IRQ-storm sentinels ride the probe plane from the first dispatch.
     Detach with [Kprobe.Registry.reset] for probe-free baselines. *)
  Kprobe.Templates.install_watchdogs ();
  List.iter
    (fun text ->
      match Kprobe.Registry.load_text text with
      | Ok _ -> ()
      | Error e -> failwith ("boot: staged probe program rejected: " ^ e))
    !boot_probes;
  mount_filesystems ~format_disk;
  { devices; stack; tcp; udp }

type host = { hstack : Netstack.t; htcp : Tcp.engine; hudp : Udp.engine }

let attach_host t =
  let hstack = Netstack.create ~ip:host_ip ~host:true in
  let ep = t.devices.Machine.Board.host_endpoint in
  (* The host's Linux stack always runs TSO: its TCP hands super-segments
     down (seg_limit = gso_max_size, see {!Tcp.make_conn}) and its NIC
     splits them into MSS wire frames here. Unconditional — no existing
     host sender emits more than one MSS per segment, so sub-MSS traffic
     passes through [tso_split] unchanged. Host-side work is uncharged. *)
  Netstack.set_ext_tx hstack (fun pkt ->
      List.iter (Machine.Wire.send ep)
        (Machine.Pktfmt.tso_split ~gso_size:Packet.mss (Packet.encode pkt)));
  Machine.Wire.on_receive ep (fun raw ->
      match Packet.decode raw with
      | Some pkt -> Netstack.rx hstack pkt
      | None -> Sim.Stats.incr "host.bad_packet");
  { hstack; htcp = Tcp.create_engine hstack ~cc:true; hudp = Udp.create_engine hstack }

let run () = Ostd.Task.run ()

let run_until = Ostd.Task.run_until
