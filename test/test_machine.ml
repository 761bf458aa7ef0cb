let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let setup ?(profile = Sim.Profile.linux) () =
  Sim.Profile.set profile;
  Machine.Board.reset ~frames:1024 ()

let test_phys_roundtrip () =
  setup ();
  let data = Bytes.of_string "hello physical memory" in
  Machine.Phys.write ~paddr:5000 data ~off:0 ~len:(Bytes.length data);
  let out = Bytes.create (Bytes.length data) in
  Machine.Phys.read ~paddr:5000 out ~off:0 ~len:(Bytes.length out);
  check "roundtrip" true (Bytes.equal data out)

let test_phys_cross_page () =
  setup ();
  let len = 10000 in
  let data = Bytes.init len (fun i -> Char.chr (i mod 256)) in
  Machine.Phys.write ~paddr:4090 data ~off:0 ~len;
  let out = Bytes.create len in
  Machine.Phys.read ~paddr:4090 out ~off:0 ~len;
  check "cross-page roundtrip" true (Bytes.equal data out)

let test_phys_zero_fill () =
  setup ();
  check_int "fresh ram reads zero" 0 (Machine.Phys.read_u8 123456)

let test_phys_out_of_range () =
  setup ();
  Alcotest.check_raises "oob"
    (Invalid_argument
       (Printf.sprintf "Phys: access [%#x, %#x) outside memory" (1024 * 4096) ((1024 * 4096) + 4)))
    (fun () -> ignore (Machine.Phys.read_u32 (1024 * 4096)))

let test_phys_scalars () =
  setup ();
  Machine.Phys.write_u32 100 0xCAFEBABE;
  check_int "u32" 0xCAFEBABE (Machine.Phys.read_u32 100);
  Machine.Phys.write_u64 200 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Machine.Phys.read_u64 200)

let test_mmio_dispatch () =
  setup ();
  let written = ref 0L in
  Machine.Mmio.register
    {
      base = 0x9000_0000;
      size = 0x10;
      name = "testdev";
      sensitive = false;
      read = (fun ~off ~len:_ -> Int64.of_int (off * 2));
      write = (fun ~off:_ ~len:_ v -> written := v);
    };
  Alcotest.(check int64) "read" 8L (Machine.Mmio.read ~addr:0x9000_0004 ~len:4);
  Machine.Mmio.write ~addr:0x9000_0000 ~len:4 77L;
  Alcotest.(check int64) "write" 77L !written;
  Alcotest.(check int64) "unclaimed reads ones" (-1L) (Machine.Mmio.read ~addr:0x1 ~len:4)

let test_mmio_overlap_rejected () =
  setup ();
  let mk base =
    {
      Machine.Mmio.base;
      size = 0x100;
      name = "a";
      sensitive = false;
      read = (fun ~off:_ ~len:_ -> 0L);
      write = (fun ~off:_ ~len:_ _ -> ());
    }
  in
  Machine.Mmio.register (mk 0x9000_0000);
  check "overlap raises" true
    (try
       Machine.Mmio.register (mk 0x9000_0080);
       false
     with Invalid_argument _ -> true)

let test_board_sensitive_labels () =
  setup ();
  (match Machine.Mmio.find Machine.Board.lapic_base with
  | Some r -> check "lapic sensitive" true r.Machine.Mmio.sensitive
  | None -> Alcotest.fail "lapic missing");
  match Machine.Pio.find 0x20 with
  | Some r -> check "pic sensitive" true r.Machine.Pio.sensitive
  | None -> Alcotest.fail "pic missing"

let test_irq_remapping () =
  setup ();
  let got = ref [] in
  Machine.Irq_chip.set_dispatcher (fun v -> got := v :: !got);
  Machine.Irq_chip.enable_remapping ();
  Machine.Irq_chip.remap_allow ~dev:1 ~vector:40;
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 1) ~vector:40;
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 2) ~vector:40;
  Machine.Irq_chip.raise_irq Machine.Irq_chip.Core ~vector:32;
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list int)) "delivered" [ 40; 32 ] (List.rev !got);
  check_int "spoofs" 1 (Machine.Irq_chip.blocked_spoofs ())

let test_iommu_fault_and_grant () =
  setup ();
  Machine.Iommu.set_enabled true;
  (match Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:16 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unmapped access passed");
  Machine.Iommu.map ~dev:3 ~paddr:0x8000 ~len:4096;
  (match Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:16 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Machine.Iommu.unmap ~dev:3 ~paddr:0x8000 ~len:4096;
  match Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:16 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "access after unmap passed"

let test_iotlb_hit_miss () =
  setup ();
  Machine.Iommu.set_enabled true;
  Machine.Iommu.map ~dev:3 ~paddr:0x8000 ~len:4096;
  let m0 = Machine.Iommu.misses () in
  ignore (Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:8);
  check_int "first access misses" (m0 + 1) (Machine.Iommu.misses ());
  let h0 = Machine.Iommu.hits () in
  ignore (Machine.Iommu.access ~dev:3 ~paddr:0x8000 ~len:8);
  check_int "second access hits" (h0 + 1) (Machine.Iommu.hits ())

let test_wire_delivery () =
  setup ();
  let a, b = Machine.Wire.create_pair ~latency_us:5.0 ~bytes_per_cycle:2. in
  let got = ref [] in
  Machine.Wire.on_receive b (fun pkt -> got := Bytes.to_string pkt :: !got);
  Machine.Wire.send a (Bytes.of_string "one");
  Machine.Wire.send a (Bytes.of_string "two");
  while Sim.Events.run_next () do
    ()
  done;
  Alcotest.(check (list string)) "in order" [ "one"; "two" ] (List.rev !got);
  check "latency applied" true (Sim.Clock.now () >= Int64.of_int (Sim.Clock.us 5.0))

let run_all_events () =
  while Sim.Events.run_next () do
    ()
  done

(* Drive the block device exactly as a driver would, but with the IOMMU
   off and raw physical writes: descriptor at 0x40000, data at 0x41000. *)
let test_virtio_blk_write_read () =
  setup ();
  let blk =
    Machine.Virtio_blk.create ~capacity_sectors:1024 ~mmio_base:Machine.Board.pci_hole_base
      ~dev_id:1 ~vector:40 ()
  in
  let irqs = ref 0 in
  Machine.Irq_chip.set_dispatcher (fun _ -> incr irqs);
  let desc = 0x40000 and data = 0x41000 in
  let payload = Bytes.make 512 'Z' in
  Machine.Phys.write ~paddr:data payload ~off:0 ~len:512;
  (* write request: type=1 len=512 sector=10 *)
  Machine.Phys.write_u32 desc 1;
  Machine.Phys.write_u32 (desc + 4) 512;
  Machine.Phys.write_u64 (desc + 8) 10L;
  Machine.Phys.write_u64 (desc + 16) (Int64.of_int data);
  Machine.Phys.write_u32 (desc + 24) 0xff;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int desc);
  run_all_events ();
  check_int "status ok" 0 (Machine.Phys.read_u32 (desc + 24));
  check_int "irq raised" 1 !irqs;
  check "backing updated" true
    (Bytes.equal payload (Machine.Virtio_blk.read_backing blk ~sector:10 ~len:512));
  (* read it back into a different buffer *)
  let data2 = 0x42000 in
  Machine.Phys.write_u32 desc 0;
  Machine.Phys.write_u64 (desc + 16) (Int64.of_int data2);
  Machine.Phys.write_u32 (desc + 24) 0xff;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int desc);
  run_all_events ();
  let out = Bytes.create 512 in
  Machine.Phys.read ~paddr:data2 out ~off:0 ~len:512;
  check "read returns written data" true (Bytes.equal payload out);
  check_int "two requests completed" 2 (Machine.Virtio_blk.requests_completed blk)

let test_virtio_blk_iommu_blocks_dma () =
  setup ();
  Machine.Iommu.set_enabled true;
  let blk =
    Machine.Virtio_blk.create ~capacity_sectors:64 ~mmio_base:Machine.Board.pci_hole_base
      ~dev_id:1 ~vector:40 ()
  in
  let desc = 0x40000 in
  Machine.Phys.write_u32 desc 0;
  Machine.Phys.write_u32 (desc + 4) 512;
  Machine.Phys.write_u64 (desc + 8) 0L;
  Machine.Phys.write_u64 (desc + 16) 0x41000L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int desc);
  run_all_events ();
  check_int "request dropped" 0 (Machine.Virtio_blk.requests_completed blk);
  check "fault recorded" true (Sim.Stats.get "iommu.fault" > 0)

let test_virtio_net_tx_rx () =
  setup ();
  let guest, host = Machine.Wire.create_pair ~latency_us:2.0 ~bytes_per_cycle:4. in
  let net =
    Machine.Virtio_net.create ~mmio_base:(Machine.Board.pci_hole_base + 0x1000) ~dev_id:2
      ~vector:41 ~endpoint:guest
  in
  let host_got = ref [] in
  Machine.Wire.on_receive host (fun pkt -> host_got := Bytes.to_string pkt :: !host_got);
  (* TX: descriptor 0x40000, payload "ping" at 0x41000 *)
  Machine.Phys.write ~paddr:0x41000 (Bytes.of_string "ping") ~off:0 ~len:4;
  Machine.Phys.write_u32 0x40000 4;
  Machine.Phys.write_u64 (0x40000 + 8) 0x41000L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + 0x1000 + Machine.Virtio_net.reg_queue_tx)
    ~len:8 0x40000L;
  run_all_events ();
  Alcotest.(check (list string)) "host received" [ "ping" ] !host_got;
  check_int "tx count" 1 (Machine.Virtio_net.tx_count net);
  (* RX: post a buffer, then host sends *)
  Machine.Phys.write_u32 0x50000 2048;
  Machine.Phys.write_u32 (0x50000 + 4) 0xFFFF;
  Machine.Phys.write_u64 (0x50000 + 8) 0x51000L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + 0x1000 + Machine.Virtio_net.reg_queue_rx)
    ~len:8 0x50000L;
  Machine.Wire.send host (Bytes.of_string "pong!");
  run_all_events ();
  check_int "used length" 5 (Machine.Phys.read_u32 (0x50000 + 4));
  let out = Bytes.create 5 in
  Machine.Phys.read ~paddr:0x51000 out ~off:0 ~len:5;
  Alcotest.(check string) "payload" "pong!" (Bytes.to_string out)

let test_virtio_net_backlog () =
  setup ();
  let guest, host = Machine.Wire.create_pair ~latency_us:1.0 ~bytes_per_cycle:4. in
  ignore
    (Machine.Virtio_net.create ~mmio_base:(Machine.Board.pci_hole_base + 0x1000) ~dev_id:2
       ~vector:41 ~endpoint:guest);
  (* Packet arrives before any buffer is posted: held in backlog. *)
  Machine.Wire.send host (Bytes.of_string "early");
  run_all_events ();
  Machine.Phys.write_u32 0x50000 2048;
  Machine.Phys.write_u64 (0x50000 + 8) 0x51000L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + 0x1000 + Machine.Virtio_net.reg_queue_rx)
    ~len:8 0x50000L;
  run_all_events ();
  check_int "delivered from backlog" 5 (Machine.Phys.read_u32 (0x50000 + 4))

(* --- Fault-injection plane at the device models --- *)

let submit_blk_write ~desc ~data ~sector =
  Machine.Phys.write_u32 desc 1;
  Machine.Phys.write_u32 (desc + 4) 512;
  Machine.Phys.write_u64 (desc + 8) (Int64.of_int sector);
  Machine.Phys.write_u64 (desc + 16) (Int64.of_int data);
  Machine.Phys.write_u32 (desc + 24) 0xff;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int desc)

let test_fault_blk_error_status () =
  setup ();
  ignore
    (Machine.Virtio_blk.create ~capacity_sectors:64 ~mmio_base:Machine.Board.pci_hole_base
       ~dev_id:1 ~vector:40 ());
  let irqs = ref 0 in
  Machine.Irq_chip.set_dispatcher (fun _ -> incr irqs);
  Sim.Fault.configure ~seed:1L [ ("blk.io_error", 1.0) ];
  submit_blk_write ~desc:0x40000 ~data:0x41000 ~sector:3;
  run_all_events ();
  check_int "error status written" 1 (Machine.Phys.read_u32 (0x40000 + 24));
  check_int "completion irq still raised" 1 !irqs;
  check "injection recorded" true (Sim.Fault.total_injected () > 0);
  Sim.Fault.disable ()

let test_fault_blk_dropped_completion () =
  setup ();
  ignore
    (Machine.Virtio_blk.create ~capacity_sectors:64 ~mmio_base:Machine.Board.pci_hole_base
       ~dev_id:1 ~vector:40 ());
  let irqs = ref 0 in
  Machine.Irq_chip.set_dispatcher (fun _ -> incr irqs);
  Sim.Fault.configure ~seed:1L [ ("blk.drop", 1.0) ];
  submit_blk_write ~desc:0x40000 ~data:0x41000 ~sector:3;
  run_all_events ();
  check_int "status stays pending" 0xff (Machine.Phys.read_u32 (0x40000 + 24));
  check_int "no completion irq" 0 !irqs;
  check "drop counted" true (Sim.Stats.get "virtio_blk.dropped_completion" > 0);
  Sim.Fault.disable ()

let test_fault_iommu_injected () =
  setup ();
  Machine.Iommu.set_enabled true;
  Machine.Iommu.map ~dev:1 ~paddr:0x40000 ~len:4096;
  check "mapped access passes clean" true (Machine.Iommu.access ~dev:1 ~paddr:0x40000 ~len:64 = Ok ());
  Sim.Fault.configure ~seed:1L [ ("iommu.fault", 1.0) ];
  (match Machine.Iommu.access ~dev:1 ~paddr:0x40000 ~len:64 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "injected translation fault passed");
  check "fault counted" true (Sim.Stats.get "iommu.injected_fault" > 0);
  Sim.Fault.disable ()

let test_fault_spurious_vector () =
  setup ();
  let got = ref [] in
  Machine.Irq_chip.set_dispatcher (fun v -> got := v :: !got);
  Sim.Fault.configure ~seed:1L [ ("irq.spurious", 1.0) ];
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 1) ~vector:40;
  run_all_events ();
  check "real vector delivered" true (List.mem 40 !got);
  check "spurious vector injected" true (List.mem Machine.Irq_chip.spurious_vector !got);
  Sim.Fault.disable ()

let test_fault_irq_storm_burst () =
  setup ();
  let got = ref 0 in
  Machine.Irq_chip.set_dispatcher (fun _ -> incr got);
  Sim.Fault.configure ~seed:1L [ ("irq.storm", 1.0) ];
  Machine.Irq_chip.raise_irq (Machine.Irq_chip.Device 1) ~vector:40;
  run_all_events ();
  check "burst multiplied the delivery" true (!got > 1);
  Sim.Fault.disable ()

let test_fault_determinism_and_isolation () =
  (* Same seed, same sequence of rolls; and unconfigured sites consume
     no randomness, so arming new sites later cannot shift old ones. *)
  setup ();
  Sim.Fault.configure ~seed:99L [ ("blk.io_error", 0.5) ];
  let a = List.init 64 (fun _ -> Sim.Fault.roll "blk.io_error") in
  let a' = List.init 64 (fun _ -> Sim.Fault.roll "net.drop") in
  Sim.Fault.configure ~seed:99L [ ("blk.io_error", 0.5) ];
  let b = List.init 64 (fun _ -> Sim.Fault.roll "blk.io_error") in
  check "same seed, same rolls" true (a = b);
  check "unconfigured sites never fire" true (List.for_all not a');
  Sim.Fault.disable ()

(* --- virtio-blk: differential test against a per-sector model ---

   Random sequences of cached writes, FUA writes, flushes, reads,
   host-side [write_backing] and a [blk.power_cut] armed k persists
   ahead run on the device (through descriptors, as a driver would) and
   on a tiny per-sector reference model of the crash contract: writes
   land in a volatile cache, a flush persists cached sectors in
   ascending order, a FUA write persists each sector at once, every
   persist is one crash boundary checked before the copy, and a power
   cut drops the cache and silences the device. *)

type blk_op =
  | Blk_write of int * int * int (* sector, sectors, data seed *)
  | Blk_fua of int * int * int
  | Blk_flush
  | Blk_read of int * int
  | Blk_backing of int * int * int
  | Blk_cut of int (* power cut on the k-th persist from now *)

let blk_cap = 64 (* sectors: 8 chunks, so requests share and straddle chunks *)

let blk_desc = 0x40000

let blk_wbuf = 0x41000

let blk_rbuf = 0x44000

let sector_pattern ~sector ~seed =
  Bytes.init 512 (fun i -> Char.unsafe_chr (((seed * 31) + (sector * 7) + (i * 13)) land 255))

let pp_blk_op = function
  | Blk_write (s, n, d) -> Printf.sprintf "write(%d,%d,%d)" s n d
  | Blk_fua (s, n, d) -> Printf.sprintf "fua(%d,%d,%d)" s n d
  | Blk_flush -> "flush"
  | Blk_read (s, n) -> Printf.sprintf "read(%d,%d)" s n
  | Blk_backing (s, n, d) -> Printf.sprintf "backing(%d,%d,%d)" s n d
  | Blk_cut k -> Printf.sprintf "cut(%d)" k

let gen_blk_ops =
  let open QCheck.Gen in
  (* Requests may run past the end (status 1); backdoor writes may not. *)
  let req = pair (int_range 0 (blk_cap - 1)) (int_range 1 12) in
  let op =
    frequency
      [
        (4, map2 (fun (s, n) d -> Blk_write (s, n, d)) req (int_range 0 255));
        (2, map2 (fun (s, n) d -> Blk_fua (s, n, d)) req (int_range 0 255));
        (2, return Blk_flush);
        (3, map (fun (s, n) -> Blk_read (s, n)) req);
        ( 1,
          map2
            (fun (s, n) d -> Blk_backing (s, min n (blk_cap - s), d))
            req (int_range 0 255) );
        (1, map (fun k -> Blk_cut k) (int_range 0 24));
      ]
  in
  list_size (int_range 1 40) op

let arb_blk_ops =
  QCheck.make gen_blk_ops ~print:(fun ops -> String.concat "; " (List.map pp_blk_op ops))

type blk_model = {
  mdisk : Bytes.t option array; (* None reads as zeroes *)
  mcache : Bytes.t option array;
  mutable mdead : bool;
  mutable mpersists : int;
  mutable mflushes : int;
  mutable mfua : int;
  mutable cut_in : int option;
  (* Chunks that took a cached write since the last drain, and the most
     there ever were at once: the device's cache footprint. *)
  mlive : bool array;
  mutable mpeak : int;
}

let blk_model () =
  {
    mdisk = Array.make blk_cap None;
    mcache = Array.make blk_cap None;
    mdead = false;
    mpersists = 0;
    mflushes = 0;
    mfua = 0;
    cut_in = None;
    mlive = Array.make (blk_cap / 8) false;
    mpeak = 0;
  }

let model_live m = Array.fold_left (fun n b -> if b then n + 1 else n) 0 m.mlive

let model_view m s =
  match m.mcache.(s) with
  | Some b -> b
  | None -> ( match m.mdisk.(s) with Some b -> b | None -> Bytes.make 512 '\000')

let model_persist m s data =
  match m.cut_in with
  | Some 0 ->
    m.cut_in <- None;
    m.mdead <- true;
    Array.fill m.mcache 0 blk_cap None;
    Array.fill m.mlive 0 (Array.length m.mlive) false;
    false
  | c ->
    (match c with Some k -> m.cut_in <- Some (k - 1) | None -> ());
    m.mdisk.(s) <- Some data;
    m.mcache.(s) <- None;
    m.mpersists <- m.mpersists + 1;
    true

(* The model's outcome of one request: [None] when no status is
   written (dead device, or the power cut fired inside it), else the
   status and, for a read, the expected bytes. *)
let model_request m op =
  let in_range s n = s + n <= blk_cap in
  let datas s n seed = List.init n (fun i -> sector_pattern ~sector:(s + i) ~seed) in
  if m.mdead then None
  else
    match op with
    | Blk_write (s, n, _) | Blk_fua (s, n, _) | Blk_read (s, n) when not (in_range s n) ->
      Some (1, None)
    | Blk_write (s, n, seed) ->
      List.iteri
        (fun i d ->
          m.mcache.(s + i) <- Some d;
          m.mlive.((s + i) / 8) <- true)
        (datas s n seed);
      m.mpeak <- max m.mpeak (model_live m);
      Some (0, None)
    | Blk_fua (s, n, seed) ->
      m.mfua <- m.mfua + 1;
      let ok = ref true in
      List.iteri (fun i d -> if !ok then ok := model_persist m (s + i) d) (datas s n seed);
      if !ok then Some (0, None) else None
    | Blk_flush ->
      m.mflushes <- m.mflushes + 1;
      let ok = ref true in
      for s = 0 to blk_cap - 1 do
        match m.mcache.(s) with
        | Some d when !ok -> ok := model_persist m s d
        | _ -> ()
      done;
      if !ok then begin
        Array.fill m.mlive 0 (Array.length m.mlive) false;
        Some (0, None)
      end
      else None
    | Blk_read (s, n) -> Some (0, Some (Bytes.concat Bytes.empty (List.init n (fun i -> model_view m (s + i)))))
    | Blk_backing _ | Blk_cut _ -> assert false

let blk_submit ~typ ~sector ~nsect ~data =
  Machine.Phys.write_u32 blk_desc typ;
  Machine.Phys.write_u32 (blk_desc + 4) (nsect * 512);
  Machine.Phys.write_u64 (blk_desc + 8) (Int64.of_int sector);
  Machine.Phys.write_u64 (blk_desc + 16) (Int64.of_int data);
  Machine.Phys.write_u32 (blk_desc + 24) 0xff;
  Machine.Phys.write_u64 (blk_desc + 32) 0L;
  Machine.Mmio.write
    ~addr:(Machine.Board.pci_hole_base + Machine.Virtio_blk.reg_queue_notify)
    ~len:8 (Int64.of_int blk_desc);
  run_all_events ();
  Machine.Phys.read_u32 (blk_desc + 24)

let new_blk ?disk () =
  Machine.Virtio_blk.create ?disk ~capacity_sectors:blk_cap
    ~mmio_base:Machine.Board.pci_hole_base ~dev_id:1 ~vector:40 ()

(* Run [ops] on a fresh device and the model side by side; [after_op]
   sees both after every op. Fails on the first divergence. *)
let run_blk_ops ?(after_op = fun _ _ -> ()) ops =
  setup ();
  Machine.Irq_chip.set_dispatcher (fun _ -> ());
  let blk = new_blk () in
  let m = blk_model () in
  List.iteri
    (fun step op ->
      let fail fmt = QCheck.Test.fail_reportf ("step %d %s: " ^^ fmt) step (pp_blk_op op) in
      (match op with
      | Blk_cut k ->
        Sim.Fault.set_trigger "blk.power_cut" ~after:k;
        m.cut_in <- Some k
      | Blk_backing (s, n, seed) ->
        let data = List.init n (fun i -> sector_pattern ~sector:(s + i) ~seed) in
        Machine.Virtio_blk.write_backing blk ~sector:s (Bytes.concat Bytes.empty data);
        List.iteri
          (fun i d ->
            m.mcache.(s + i) <- None;
            m.mdisk.(s + i) <- Some d)
          data
      | Blk_write (s, n, seed) | Blk_fua (s, n, seed) ->
        let typ = match op with Blk_write _ -> 1 | _ -> 3 in
        List.iteri
          (fun i d -> Machine.Phys.write ~paddr:(blk_wbuf + (i * 512)) d ~off:0 ~len:512)
          (List.init n (fun i -> sector_pattern ~sector:(s + i) ~seed));
        let got = blk_submit ~typ ~sector:s ~nsect:n ~data:blk_wbuf in
        let want = match model_request m op with Some (st, _) -> st | None -> 0xff in
        if got <> want then fail "status %d, model %d" got want
      | Blk_flush ->
        let got = blk_submit ~typ:2 ~sector:0 ~nsect:0 ~data:0 in
        let want = match model_request m op with Some (st, _) -> st | None -> 0xff in
        if got <> want then fail "status %d, model %d" got want
      | Blk_read (s, n) -> (
        Machine.Phys.fill ~paddr:blk_rbuf ~len:(n * 512) '\xee';
        let got = blk_submit ~typ:0 ~sector:s ~nsect:n ~data:blk_rbuf in
        match model_request m op with
        | None -> if got <> 0xff then fail "status %d from a dead device" got
        | Some (want, expect) -> (
          if got <> want then fail "status %d, model %d" got want;
          match expect with
          | Some e ->
            let out = Bytes.create (n * 512) in
            Machine.Phys.read ~paddr:blk_rbuf out ~off:0 ~len:(n * 512);
            if not (Bytes.equal out e) then fail "read returned different bytes"
          | None -> ())));
      let dev_counts =
        Machine.Virtio_blk.
          (persist_count blk, flushes blk, fua_writes blk, is_dead blk)
      in
      if dev_counts <> (m.mpersists, m.mflushes, m.mfua, m.mdead) then
        fail "persists/flushes/fua/dead differ from the model (%d/%d/%d/%b)" m.mpersists
          m.mflushes m.mfua m.mdead;
      after_op blk m)
    ops;
  (blk, m)

let image_matches blk m =
  let ok = ref true in
  for s = 0 to blk_cap - 1 do
    let want = match m.mdisk.(s) with Some b -> b | None -> Bytes.make 512 '\000' in
    if not (Bytes.equal want (Machine.Virtio_blk.read_backing blk ~sector:s ~len:512)) then
      ok := false
  done;
  !ok

let prop_blk_differential =
  QCheck.Test.make ~name:"virtio_blk_matches_sector_model" ~count:300 arb_blk_ops (fun ops ->
      let blk, m = run_blk_ops ops in
      (* The host view reads cache-then-disk; after a power cut there
         is no cache left to shadow the image. *)
      for s = 0 to blk_cap - 1 do
        if not (Bytes.equal (model_view m s) (Machine.Virtio_blk.read_backing blk ~sector:s ~len:512))
        then QCheck.Test.fail_reportf "host view of sector %d differs" s
      done;
      (* What survives is exactly the model's disk, read through a fresh
         device around the image (empty cache). A clone is independent
         of the original in both directions. *)
      let img = Machine.Virtio_blk.disk_image blk in
      let copy = Machine.Virtio_blk.clone_disk img in
      setup ();
      let dev = new_blk ~disk:img () in
      if not (image_matches dev m) then QCheck.Test.fail_report "survived image differs";
      if Machine.Virtio_blk.persist_count dev <> m.mpersists then
        QCheck.Test.fail_report "persist count not carried by the image";
      Machine.Virtio_blk.write_backing dev ~sector:0 (Bytes.make (blk_cap * 512) 'X');
      setup ();
      let dev' = new_blk ~disk:copy () in
      if not (image_matches dev' m) then QCheck.Test.fail_report "clone saw the original's writes";
      Machine.Virtio_blk.write_backing dev' ~sector:0 (Bytes.make (blk_cap * 512) 'Y');
      setup ();
      let again = new_blk ~disk:img () in
      if not (Bytes.equal (Machine.Virtio_blk.read_backing again ~sector:0 ~len:512)
                (Bytes.make 512 'X'))
      then QCheck.Test.fail_report "original saw the clone's writes";
      true)

(* Memory bound of the chunked store, over the same random sequences:
   the cache holds exactly the chunks written since the last drain, a
   flush or power cut hands them all to the pool, and the pool never
   outgrows the peak number of chunks live at once. *)
let prop_blk_cache_bounded =
  QCheck.Test.make ~name:"virtio_blk_cache_bounded_by_peak" ~count:300 arb_blk_ops (fun ops ->
      let after_op blk m =
        let st = Machine.Virtio_blk.cache_stats blk in
        if st.live_chunks <> model_live m then
          QCheck.Test.fail_reportf "%d live chunks, model %d" st.live_chunks (model_live m);
        if st.pooled_chunks > m.mpeak || st.live_chunks + st.pooled_chunks <> m.mpeak then
          QCheck.Test.fail_reportf "%d live + %d pooled chunks, peak live %d" st.live_chunks
            st.pooled_chunks m.mpeak
      in
      ignore (run_blk_ops ~after_op ops);
      true)

let test_blk_reads_do_not_allocate () =
  setup ();
  Machine.Irq_chip.set_dispatcher (fun _ -> ());
  let blk = new_blk () in
  let img = Machine.Virtio_blk.disk_image blk in
  check_int "fresh image is empty" 0 (Machine.Virtio_blk.image_chunks img);
  check_int "read of unwritten sectors" 0 (blk_submit ~typ:0 ~sector:5 ~nsect:12 ~data:blk_rbuf);
  let out = Bytes.create (12 * 512) in
  Machine.Phys.read ~paddr:blk_rbuf out ~off:0 ~len:(12 * 512);
  check "reads as zeroes" true (Bytes.equal out (Bytes.make (12 * 512) '\000'));
  ignore (Machine.Virtio_blk.read_backing blk ~sector:40 ~len:1024);
  check_int "image did not grow" 0 (Machine.Virtio_blk.image_chunks img);
  (* A cached write does not touch the image; its flush makes one chunk
     and leaves the cache chunk pooled, not live. *)
  ignore (blk_submit ~typ:1 ~sector:9 ~nsect:2 ~data:blk_wbuf);
  check_int "cached write leaves the image alone" 0 (Machine.Virtio_blk.image_chunks img);
  ignore (blk_submit ~typ:2 ~sector:0 ~nsect:0 ~data:0);
  check_int "flush wrote one chunk" 1 (Machine.Virtio_blk.image_chunks img);
  let st = Machine.Virtio_blk.cache_stats blk in
  check_int "no live cache chunk after a flush" 0 st.live_chunks;
  check_int "the drained chunk is pooled" 1 st.pooled_chunks

(* Host access off the device raises before touching anything: the
   image, the cache and the counters are exactly as they were. *)
let test_blk_backing_out_of_range () =
  setup ();
  Machine.Irq_chip.set_dispatcher (fun _ -> ());
  let blk = new_blk () in
  let img = Machine.Virtio_blk.disk_image blk in
  Machine.Virtio_blk.write_backing blk ~sector:56 (Bytes.make (8 * 512) 'a');
  ignore (blk_submit ~typ:1 ~sector:62 ~nsect:2 ~data:blk_wbuf);
  let view () = Machine.Virtio_blk.read_backing blk ~sector:56 ~len:(8 * 512) in
  let before = view () and st0 = Machine.Virtio_blk.cache_stats blk in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (sector, nsect) ->
      let what = Printf.sprintf "sector %d x%d" sector nsect in
      raises ("write " ^ what) (fun () ->
          Machine.Virtio_blk.write_backing blk ~sector (Bytes.make (nsect * 512) 'z'));
      raises ("read " ^ what) (fun () ->
          ignore (Machine.Virtio_blk.read_backing blk ~sector ~len:(nsect * 512))))
    [ (63, 2); (64, 1); (-1, 1); (-8, 9); (max_int - 1, 2); (min_int, 1) ];
  raises "partial sector" (fun () -> Machine.Virtio_blk.write_backing blk ~sector:0 (Bytes.make 100 'z'));
  check "view unchanged" true (Bytes.equal before (view ()));
  check_int "image chunks unchanged" 1 (Machine.Virtio_blk.image_chunks img);
  check_int "no persists" 0 (Machine.Virtio_blk.persist_count blk);
  check "cache unchanged" true (Machine.Virtio_blk.cache_stats blk = st0);
  check_int "flush still drains the cached pair" 0 (blk_submit ~typ:2 ~sector:0 ~nsect:0 ~data:0);
  check_int "two persists" 2 (Machine.Virtio_blk.persist_count blk)

(* A descriptor whose sector field is near the top of the int range (or
   negative once converted) completes with status 1; [sector + nsect]
   must not wrap into range. *)
let test_blk_huge_sector () =
  setup ();
  Machine.Irq_chip.set_dispatcher (fun _ -> ());
  let blk = new_blk () in
  List.iter
    (fun sector ->
      List.iter
        (fun typ ->
          check_int
            (Printf.sprintf "type %d sector %d" typ sector)
            1
            (blk_submit ~typ ~sector ~nsect:2 ~data:blk_rbuf))
        [ 0; 1; 3 ])
    [ max_int - 1; max_int; blk_cap - 1; -1; min_int ];
  check "device alive" false (Machine.Virtio_blk.is_dead blk);
  check_int "nothing persisted" 0 (Machine.Virtio_blk.persist_count blk);
  check_int "nothing cached" 0 (Machine.Virtio_blk.cache_stats blk).live_chunks;
  check_int "failed requests" 15 (Machine.Virtio_blk.requests_failed blk)

let prop_phys_roundtrip =
  QCheck.Test.make ~name:"phys_random_roundtrips" ~count:200
    QCheck.(pair (int_range 0 100000) (string_of_size (QCheck.Gen.int_range 1 9000)))
    (fun (paddr, s) ->
      setup ();
      let len = String.length s in
      let data = Bytes.of_string s in
      Machine.Phys.write ~paddr data ~off:0 ~len;
      let out = Bytes.create len in
      Machine.Phys.read ~paddr out ~off:0 ~len;
      Bytes.equal data out)

let prop_iommu_pages =
  QCheck.Test.make ~name:"iommu_grant_covers_exact_pages" ~count:100
    QCheck.(pair (int_range 0 200) (int_range 1 16384))
    (fun (pageno, len) ->
      setup ();
      Machine.Iommu.set_enabled true;
      let paddr = pageno * 4096 in
      Machine.Iommu.map ~dev:1 ~paddr ~len;
      let ok_inside = Machine.Iommu.access ~dev:1 ~paddr ~len = Ok () in
      let after = paddr + (((len + 4095) / 4096) * 4096) in
      let fails_after =
        match Machine.Iommu.access ~dev:1 ~paddr:after ~len:1 with
        | Error _ -> true
        | Ok () -> false
      in
      ok_inside && fails_after)

let () =
  Alcotest.run "machine"
    [
      ( "phys",
        [
          Alcotest.test_case "roundtrip" `Quick test_phys_roundtrip;
          Alcotest.test_case "cross_page" `Quick test_phys_cross_page;
          Alcotest.test_case "zero_fill" `Quick test_phys_zero_fill;
          Alcotest.test_case "out_of_range" `Quick test_phys_out_of_range;
          Alcotest.test_case "scalars" `Quick test_phys_scalars;
        ] );
      ( "mmio",
        [
          Alcotest.test_case "dispatch" `Quick test_mmio_dispatch;
          Alcotest.test_case "overlap" `Quick test_mmio_overlap_rejected;
          Alcotest.test_case "sensitive_labels" `Quick test_board_sensitive_labels;
        ] );
      ( "irq_iommu",
        [
          Alcotest.test_case "remapping" `Quick test_irq_remapping;
          Alcotest.test_case "fault_and_grant" `Quick test_iommu_fault_and_grant;
          Alcotest.test_case "iotlb" `Quick test_iotlb_hit_miss;
        ] );
      ( "devices",
        [
          Alcotest.test_case "wire" `Quick test_wire_delivery;
          Alcotest.test_case "virtio_blk_rw" `Quick test_virtio_blk_write_read;
          Alcotest.test_case "virtio_blk_iommu" `Quick test_virtio_blk_iommu_blocks_dma;
          Alcotest.test_case "virtio_blk_reads_do_not_allocate" `Quick
            test_blk_reads_do_not_allocate;
          Alcotest.test_case "virtio_blk_backing_out_of_range" `Quick
            test_blk_backing_out_of_range;
          Alcotest.test_case "virtio_blk_huge_sector" `Quick test_blk_huge_sector;
          Alcotest.test_case "virtio_net_tx_rx" `Quick test_virtio_net_tx_rx;
          Alcotest.test_case "virtio_net_backlog" `Quick test_virtio_net_backlog;
        ] );
      ( "fault_plane",
        [
          Alcotest.test_case "blk_error_status" `Quick test_fault_blk_error_status;
          Alcotest.test_case "blk_dropped_completion" `Quick test_fault_blk_dropped_completion;
          Alcotest.test_case "iommu_injected" `Quick test_fault_iommu_injected;
          Alcotest.test_case "spurious_vector" `Quick test_fault_spurious_vector;
          Alcotest.test_case "irq_storm_burst" `Quick test_fault_irq_storm_burst;
          Alcotest.test_case "determinism" `Quick test_fault_determinism_and_isolation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_phys_roundtrip; prop_iommu_pages; prop_blk_differential; prop_blk_cache_bounded ]
      );
    ]
