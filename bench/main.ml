(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6). Run everything, or name targets:

     dune exec bench/main.exe                   # everything
     dune exec bench/main.exe -- table7 fig5a   # a subset
     dune exec bench/main.exe -- quick          # reduced iteration counts

   Measured numbers come from the simulator's virtual clock; the paper's
   published values are printed alongside so the shape can be compared
   directly. *)

let quick = ref false

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

(* --- Machine-readable results (BENCH_results.json) ---

   Every comparative benchmark records a row; the accumulated set is
   written as JSON at exit so the perf trajectory is diffable run to
   run. Schema documented in EXPERIMENTS.md. *)

type pctls = { pcount : int; p50 : float; p90 : float; p99 : float; pmax : float }

type result = {
  benchmark : string;
  unit_ : string;
  linux : float option;
  aster : float option;
  norm : float option;
  percentiles : pctls option;
  cpu : Sim.Prof.frame_stat list option;
  spans : (string * (string * int64) list) option;
      (* dominant span class + top-3 critical-path segments of its p99 span *)
}

let results : result list ref = ref []

let add_result ?linux ?aster ?norm ?percentiles ?cpu ?spans ~unit_ benchmark =
  results := { benchmark; unit_; linux; aster; norm; percentiles; cpu; spans } :: !results

(* Top-3 kprof scopes of the most recent run. Like the histograms, each
   boot clears attribution, so calling this right after an
   aster-profile workload captures exactly that run. *)
let prof_top3 () =
  match Sim.Prof.top_scopes ~limit:3 () with [] -> None | fs -> Some fs

(* Top-3 critical-path segments of the most recent run's p99 tail span,
   for the workload's dominant span class. Like kprof, kspan rides along
   at zero virtual cost and each boot clears its reservoirs, so calling
   this right after an aster-profile workload explains exactly that
   run's tail. *)
let span_top3 () =
  match Sim.Span.dominant_class () with
  | None -> None
  | Some cls -> (
    match Sim.Span.class_p99 cls with
    | None -> None
    | Some i ->
      let rec take n = function
        | x :: tl when n > 0 -> x :: take (n - 1) tl
        | _ -> []
      in
      (match take 3 i.Sim.Span.i_path with [] -> None | top -> Some (cls, top)))

(* Syscall-latency percentiles of the most recent run. Each boot resets
   the histograms, so calling this right after an aster-profile workload
   captures exactly that run. *)
let syscall_pctls () =
  match Sim.Hist.find "syscall" with
  | Some h when Sim.Hist.count h > 0 ->
    Some
      {
        pcount = Sim.Hist.count h;
        p50 = Sim.Hist.percentile_exn h 50.;
        p90 = Sim.Hist.percentile_exn h 90.;
        p99 = Sim.Hist.percentile_exn h 99.;
        pmax = Sim.Hist.max_value h;
      }
  | Some _ | None -> None

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f =
  if Float.is_nan f || f = infinity || f = neg_infinity then "null"
  else Printf.sprintf "%.6g" f

let json_opt_float = function None -> "null" | Some f -> json_float f

let json_of_result r =
  let pj =
    match r.percentiles with
    | None -> "null"
    | Some p ->
      Printf.sprintf {|{"count": %d, "p50": %s, "p90": %s, "p99": %s, "max": %s}|} p.pcount
        (json_float p.p50) (json_float p.p90) (json_float p.p99) (json_float p.pmax)
  in
  let cj =
    match r.cpu with
    | None -> "null"
    | Some fs ->
      "["
      ^ String.concat ", "
          (List.map
             (fun (s : Sim.Prof.frame_stat) ->
               Printf.sprintf {|{"scope": "%s", "self": %Ld, "total": %Ld}|}
                 (json_escape s.Sim.Prof.frame) s.Sim.Prof.self s.Sim.Prof.total)
             fs)
      ^ "]"
  in
  let sj =
    match r.spans with
    | None -> "null"
    | Some (cls, top) ->
      Printf.sprintf {|{"class": "%s", "top": [%s]}|} (json_escape cls)
        (String.concat ", "
           (List.map
              (fun (seg, cyc) ->
                Printf.sprintf {|{"segment": "%s", "cycles": %Ld}|} (json_escape seg) cyc)
              top))
  in
  Printf.sprintf
    {|    {"benchmark": "%s", "unit": "%s", "linux": %s, "aster": %s, "norm": %s, "percentiles": %s, "cpu": %s, "p99_path": %s}|}
    (json_escape r.benchmark) (json_escape r.unit_) (json_opt_float r.linux)
    (json_opt_float r.aster) (json_opt_float r.norm) pj cj sj

let write_json ~path ~targets =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"schema\": \"asterinas-sim-bench/3\",\n  \"quick\": %b,\n  \"targets\": [%s],\n  \"results\": [\n%s\n  ]\n}\n"
    !quick
    (String.concat ", " (List.map (fun t -> "\"" ^ json_escape t ^ "\"") targets))
    (String.concat ",\n" (List.rev_map json_of_result !results));
  close_out oc;
  Printf.printf "\nwrote %d benchmark results to %s\n" (List.length !results) path

(* --- Paper reference values --- *)

let table7_paper =
  [
    ("lat_syscall null", 0.050, 0.066);
    ("lat_ctx 18", 0.826, 0.829);
    ("lat_proc fork", 59.20, 57.46);
    ("lat_proc exec", 204.8, 174.4);
    ("lat_proc shell", 319.3, 294.3);
    ("lat_pagefault", 0.109, 0.100);
    ("lat_mmap 4m", 19.4, 16.80);
    ("bw_mmap 256m", 15405., 13197.);
    ("lat_pipe", 1.826, 1.881);
    ("bw_pipe", 11133., 14664.);
    ("lat_fifo", 1.825, 1.938);
    ("lat_unix", 2.677, 2.493);
    ("bw_unix", 7875., 14183.);
    ("lat_syscall open", 0.611, 0.740);
    ("lat_syscall read", 0.081, 0.088);
    ("lat_syscall write", 0.065, 0.080);
    ("lat_syscall stat", 0.299, 0.400);
    ("lat_syscall fstat", 0.263, 0.231);
    ("bw_file_rd 512m", 10238., 9198.);
    ("lmdd(Ramfs->Ramfs)", 3219., 2973.);
    ("lmdd(Ramfs->Ext2)", 2490., 2612.);
    ("lmdd(Ext2->Ramfs)", 3453., 2962.);
    ("lmdd(Ext2->Ext2)", 2017., 2626.);
    ("lat_udp (loopback)", 3.801, 2.427);
    ("lat_tcp (loopback)", 5.326, 2.725);
    ("bw_tcp 128 (loopback)", 280.0, 356.5);
    ("bw_tcp 64k (loopback)", 6216., 7647.);
    ("lat_udp (virtio)", 15.03, 11.49);
    ("lat_tcp (virtio)", 16.75, 12.94);
    ("bw_tcp 128 (virtio)", 328.7, 333.2);
    ("bw_tcp 64k (virtio)", 1151., 1116.);
  ]

let redis_paper =
  [
    ("PING_INLINE", 151022., 213342., 211694.);
    ("PING_MBULK", 157979., 220976., 218041.);
    ("SET", 153391., 211648., 210302.);
    ("GET", 155994., 218670., 219300.);
    ("INCR", 152133., 219217., 219302.);
    ("LPUSH", 149887., 211692., 211960.);
    ("RPUSH", 150505., 214605., 214054.);
    ("LPOP", 148348., 209365., 209309.);
    ("RPOP", 150714., 210426., 210139.);
    ("SADD", 156514., 217682., 217878.);
    ("HSET", 152276., 209336., 211664.);
    ("SPOP", 157351., 217016., 221988.);
    ("ZADD", 149386., 206069., 207480.);
    ("ZPOPMIN", 158361., 219784., 221895.);
    ("LRANGE_100", 92696., 114472., 113062.);
    ("LRANGE_300", 39268., 39732., 39629.);
    ("LRANGE_500", 27430., 27843., 27338.);
    ("LRANGE_600", 23876., 23649., 23675.);
    ("MSET", 125747., 160041., 157920.);
  ]

let sqlite_paper =
  [
    (100, 0.27, 0.33, 0.32); (110, 0.43, 0.49, 0.49); (120, 0.88, 1.00, 1.00);
    (130, 0.40, 0.45, 0.44); (140, 0.61, 0.71, 0.73); (142, 1.17, 1.35, 1.34);
    (145, 0.49, 0.57, 0.56); (150, 0.95, 1.16, 1.13); (160, 1.74, 2.02, 2.03);
    (161, 1.75, 2.02, 2.02); (170, 1.72, 2.06, 2.03); (180, 2.14, 2.41, 2.42);
    (190, 2.09, 2.38, 2.38); (200, 1.59, 2.21, 2.07); (210, 0.04, 0.04, 0.04);
    (230, 1.81, 2.11, 2.08); (240, 1.34, 1.58, 1.55); (250, 0.21, 0.26, 0.24);
    (260, 0.02, 0.02, 0.02); (270, 2.26, 2.63, 2.58); (280, 2.19, 2.6, 2.58);
    (290, 3.85, 4.31, 4.22); (300, 2.20, 2.51, 2.48); (310, 3.60, 4.27, 4.25);
    (320, 7.14, 8.3, 8.35); (400, 1.44, 1.57, 1.58); (410, 2.25, 3.06, 3.05);
    (500, 1.66, 1.82, 1.85); (510, 2.56, 3.4, 3.41); (520, 0.57, 0.62, 0.64);
    (980, 3.33, 3.95, 3.97); (990, 0.20, 0.22, 0.22);
  ]

(* --- Table 1 --- *)

let table1 () =
  section "Table 1: unsafe-utilizing crates in existing Rust-based OSes";
  Printf.printf "%-10s %-16s %s\n" "OS" "unsafe/total" "fraction";
  List.iter
    (fun (name, g) ->
      let u, t = Tcbaudit.Crate_graph.unsafe_crate_fraction g in
      Printf.printf "%-10s %3d / %-10d %3.0f%%\n" name u t
        (100. *. float_of_int u /. float_of_int t))
    Tcbaudit.Datasets.table1;
  print_endline "(paper: Linux 6/11 55%, Tock 91/98 93%, RedLeaf 36/58 62%, Theseus 54/171 32%)"

(* --- Table 3 --- *)

let table3 () =
  section "Table 3: growth of Linux components (KLoC)";
  Printf.printf "%-18s %-14s %-14s %s\n" "Component" "v2.1.23 (1997)" "v6.12.0 (2024)" "growth";
  List.iter
    (fun (name, early, late) ->
      Printf.printf "%-18s %-14.1f %-14.1f %.0fx\n" name early late (late /. early))
    Tcbaudit.Datasets.linux_component_growth

(* --- Table 7 --- *)

let table7 () =
  section "Table 7: LMbench micro-benchmarks (measured | paper)";
  Printf.printf "%-24s %10s %10s %6s | %9s %9s %6s\n" "benchmark" "linux" "aster" "norm"
    "p-linux" "p-aster" "p-nrm";
  let norms = ref [] in
  List.iter
    (fun (row : Apps.Lmbench.row) ->
      let linux = row.Apps.Lmbench.run Sim.Profile.linux in
      let aster = row.Apps.Lmbench.run Sim.Profile.asterinas in
      let norm = if row.higher_better then aster /. linux else linux /. aster in
      norms := norm :: !norms;
      let p_lin, p_ast =
        match List.find_opt (fun (n, _, _) -> n = row.name) table7_paper with
        | Some (_, l, a) -> (l, a)
        | None -> (nan, nan)
      in
      let p_norm = if row.higher_better then p_ast /. p_lin else p_lin /. p_ast in
      add_result ~linux ~aster ~norm ~unit_:row.unit_ ("table7/" ^ row.name);
      Printf.printf "%-24s %10.3f %10.3f %6.2f | %9.3f %9.3f %6.2f  [%s]\n%!" row.name linux
        aster norm p_lin p_ast p_norm row.unit_)
    Apps.Lmbench.rows;
  let gm = Sim.Stats.geomean !norms in
  add_result ~norm:gm ~unit_:"ratio" "table7/geomean";
  Printf.printf "%-24s %21s %6.2f | %20s %6.2f\n" "geometric mean" "" gm "" 1.08

(* --- Table 8 --- *)

let table8 () =
  section "Table 8: overhead of OSTD safety mechanisms (simulated cycles/op)";
  let ops : (string * (unit -> unit -> unit)) list =
    [
      ( "Segment::read_bytes (4KB)",
        fun () ->
          let s = Ostd.Frame.alloc ~pages:2 ~untyped:true () in
          let buf = Bytes.create 4096 in
          fun () -> Ostd.Untyped.read_bytes s ~off:0 ~buf ~pos:0 ~len:4096 );
      ( "Segment::write_bytes (4KB)",
        fun () ->
          let s = Ostd.Frame.alloc ~pages:2 ~untyped:true () in
          let buf = Bytes.create 4096 in
          fun () -> Ostd.Untyped.write_bytes s ~off:0 ~buf ~pos:0 ~len:4096 );
      ( "IoMem::read_once (4 bytes)",
        fun () ->
          ignore (Machine.Board.attach_default_devices ());
          let w =
            Result.get_ok (Ostd.Io_mem.acquire ~base:Machine.Board.pci_hole_base ~size:0x100)
          in
          fun () -> ignore (Ostd.Io_mem.read_once w ~off:0 ~len:4) );
      ( "IoMem::write_once (4 bytes)",
        fun () ->
          ignore (Machine.Board.attach_default_devices ());
          let w =
            Result.get_ok
              (Ostd.Io_mem.acquire ~base:(Machine.Board.pci_hole_base + 0x1000) ~size:0x100)
          in
          fun () -> Ostd.Io_mem.write_once w ~off:0x40 ~len:4 0L );
      ("KernelStack::new", fun () -> fun () -> Ostd.Kstack.destroy (Ostd.Kstack.create ()));
      ( "Task::yield_now",
        fun () ->
          fun () ->
            (* One task yielding to itself 10 times; cost reported per
               dispatch via the measuring loop's 50 iterations. *)
            ignore
              (Ostd.Task.spawn (fun () ->
                   for _ = 1 to 10 do
                     Ostd.Task.yield_now ()
                   done));
            Ostd.Task.run () );
      ( "FrameAlloc::alloc (1 frame)",
        fun () -> fun () -> Ostd.Frame.drop (Ostd.Frame.alloc ~untyped:true ()) );
      ( "Box::new (48 bytes)",
        fun () ->
          Aster.Slab_policy.install_global_heap ();
          fun () -> Ostd.Slab.kfree (Ostd.Slab.kmalloc ~size:48 ()) );
    ]
  in
  let measure profile setup =
    Sim.Profile.set profile;
    Ostd.Selftest.fresh_boot ();
    let op = setup () in
    op ();
    let t0 = Sim.Clock.now () in
    let iters = 50 in
    for _ = 1 to iters do
      op ()
    done;
    Int64.to_int (Int64.sub (Sim.Clock.now ()) t0) / iters
  in
  Printf.printf "%-28s %10s %10s %s\n" "operation" "with" "without" "overhead/total";
  List.iter
    (fun (name, setup) ->
      let with_checks = measure Sim.Profile.asterinas setup in
      let without = measure (Sim.Profile.with_safety_checks false Sim.Profile.asterinas) setup in
      let ov = with_checks - without in
      Printf.printf "%-28s %10d %10d %6d/%d (%.1f%%)\n" name with_checks without ov with_checks
        (100. *. float_of_int ov /. float_of_int (max 1 with_checks)))
    ops;
  print_endline
    "(paper overhead/total: 3/125, 2/239, 170/10988, 166/10666, 25/2950, 1/167, 12/180, 1/148)"

(* --- Table 9 + self-audit --- *)

let table9 () =
  section "Table 9: TCB comparison via Linked Code Size";
  Printf.printf "%-12s %10s %10s %10s\n" "OS" "total" "TCB" "relative";
  List.iter
    (fun (name, g) ->
      Printf.printf "%-12s %10d %10d %9.1f%%\n" name (Tcbaudit.Crate_graph.total_lcs g)
        (Tcbaudit.Crate_graph.tcb_lcs g)
        (100. *. Tcbaudit.Crate_graph.relative_tcb g))
    Tcbaudit.Datasets.table9;
  print_endline "(paper: RedLeaf 66.1%, Theseus 62.4%, Tock 43.8%, Asterinas 14.0%)";
  let r = Tcbaudit.Self_audit.run () in
  Printf.printf "\nSelf-audit of this repository (same methodology):\n";
  List.iter
    (fun (e : Tcbaudit.Self_audit.entry) ->
      Printf.printf "  lib/%-10s %6d LoC %s\n" e.library e.loc (if e.tcb then "[TCB]" else ""))
    r.Tcbaudit.Self_audit.entries;
  Printf.printf "  total %d LoC, TCB %d LoC, relative %.1f%%\n" r.Tcbaudit.Self_audit.total_loc
    r.Tcbaudit.Self_audit.tcb_loc
    (100. *. r.Tcbaudit.Self_audit.relative)

(* --- Table 10 --- *)

let table10 () =
  section "Table 10: KernMiri coverage and efficiency on OSTD";
  let rows = Kernmiri.Runner.run () in
  Printf.printf "%-10s %6s %18s %18s %10s %10s\n" "submodule" "tests" "checkpoints" "unsafe ops"
    "native" "kernmiri";
  let print_row (r : Kernmiri.Runner.row) =
    Printf.printf "%-10s %6d %10d/%-3d (%3.0f%%) %9d/%-3d (%3.0f%%) %9.4fs %9.4fs\n" r.submodule
      r.tests r.lines_covered r.lines_total
      (100. *. float_of_int r.lines_covered /. float_of_int (max 1 r.lines_total))
      r.unsafe_covered r.unsafe_total
      (100. *. float_of_int r.unsafe_covered /. float_of_int (max 1 r.unsafe_total))
      r.native_s r.kernmiri_s
  in
  List.iter print_row rows;
  print_row (Kernmiri.Runner.totals rows);
  print_endline "(paper: 134 tests, ~93% line coverage, 100% unsafe coverage, ~25x slowdown)"

(* --- Fig. 5a: Nginx --- *)

let nginx_rps profile file requests =
  let k = Apps.Runner.boot ~profile in
  let host = Aster.Kernel.attach_host k in
  Apps.Mini_nginx.spawn ~requests ~sizes:[ ("f4k", 4096); ("f64k", 65536) ] ();
  let out = ref nan in
  Apps.Ab.run ~host ~path:("/" ^ file) ~concurrency:32 ~requests ~on_done:(fun r ->
      out := r.Apps.Ab.rps);
  Apps.Runner.run ();
  !out

let fig5a () =
  section "Fig. 5a: Nginx throughput (ab -c 32), requests/s";
  let n4 = if !quick then 1500 else 6000 in
  let n64 = if !quick then 800 else 2500 in
  Printf.printf "%-8s %10s %10s %12s\n" "file" "linux" "aster" "aster-noIOMMU";
  List.iter
    (fun (file, n, paper) ->
      let lin = nginx_rps Sim.Profile.linux file n in
      let ast = nginx_rps Sim.Profile.asterinas file n in
      let percentiles = syscall_pctls () in
      let cpu = prof_top3 () in
      let spans = span_top3 () in
      let noi = nginx_rps Sim.Profile.asterinas_no_iommu file n in
      add_result ~linux:lin ~aster:ast ~norm:(ast /. lin) ?percentiles ?cpu ?spans
        ~unit_:"req/s"
        ("fig5a/nginx_" ^ file);
      Printf.printf "%-8s %10.0f %10.0f %12.0f   norm=%.2f  %s\n%!" file lin ast noi (ast /. lin)
        paper)
    [
      ("f4k", n4, "(paper: linux 19227, aster 22912, norm 1.19)");
      ("f64k", n64, "(paper: linux ~9105, aster 9234, norm ~1.01)");
    ]

(* --- Fig. 5b + Table 11: Redis --- *)

let redis_rps profile op requests =
  let k = Apps.Runner.boot ~profile in
  let host = Aster.Kernel.attach_host k in
  Apps.Mini_redis.spawn ();
  let out = ref nan in
  (* Fill the shared list first, as redis-benchmark's earlier phases do. *)
  Apps.Redis_bench.run_op ~host ~op:"RPUSH" ~clients:8 ~requests:700 ~on_done:(fun _ ->
      Apps.Redis_bench.run_op ~host ~op ~clients:16 ~requests ~on_done:(fun r ->
          out := r.Apps.Redis_bench.rps));
  Apps.Runner.run ();
  !out

let redis_table ops =
  Printf.printf "%-12s %10s %10s %12s | paper: linux/aster/no-iommu\n" "op" "linux" "aster"
    "no-iommu";
  List.iter
    (fun op ->
      let lrange = String.length op >= 6 && String.sub op 0 6 = "LRANGE" in
      let n =
        if lrange then if !quick then 400 else 1200 else if !quick then 1200 else 3500
      in
      let lin = redis_rps Sim.Profile.linux op n in
      let ast = redis_rps Sim.Profile.asterinas op n in
      let percentiles = syscall_pctls () in
      let cpu = prof_top3 () in
      let spans = span_top3 () in
      let noi = redis_rps Sim.Profile.asterinas_no_iommu op n in
      add_result ~linux:lin ~aster:ast ~norm:(ast /. lin) ?percentiles ?cpu ?spans
        ~unit_:"req/s"
        ("redis/" ^ op);
      let p =
        match List.find_opt (fun (o, _, _, _) -> o = op) redis_paper with
        | Some (_, l, a, ni) -> Printf.sprintf "| %8.0f %8.0f %8.0f" l a ni
        | None -> ""
      in
      Printf.printf "%-12s %10.0f %10.0f %12.0f %s\n%!" op lin ast noi p)
    ops

let table11 () =
  section "Table 11: complete redis-benchmark results (requests/s)";
  redis_table Apps.Mini_redis.command_names

let fig5b () =
  section "Fig. 5b: Redis representative commands (requests/s)";
  redis_table [ "GET"; "SET"; "INCR"; "LPUSH"; "SPOP"; "LRANGE_100" ]

(* --- Fig. 5c + Table 12: SQLite --- *)

let sqlite_run profile =
  ignore (Apps.Runner.boot ~profile);
  let out = ref [] in
  Apps.Runner.spawn ~name:"speedtest1" (fun c ->
      out := Apps.Speedtest1.run ~size:(if !quick then 8 else 16) c;
      0);
  Apps.Runner.run ();
  !out

let table12 () =
  section "Table 12 / Fig. 5c: SQLite speedtest1 (virtual seconds; workload scaled down)";
  let lin = sqlite_run Sim.Profile.linux in
  Aster.Strace.reset ();
  let ast = sqlite_run Sim.Profile.asterinas in
  let small = Aster.Strace.small_writes () in
  let aster_pctls = syscall_pctls () in
  let aster_cpu = prof_top3 () in
  let aster_spans = span_top3 () in
  let noi = sqlite_run Sim.Profile.asterinas_no_iommu in
  Printf.printf "%4s %-44s %8s %8s %8s %6s | paper (s, ratio)\n" "num" "test" "linux" "aster"
    "noIOMMU" "ratio";
  let tot = ref (0., 0., 0.) in
  List.iteri
    (fun i (l : Apps.Speedtest1.result) ->
      let a = List.nth ast i and n = List.nth noi i in
      let la = l.Apps.Speedtest1.seconds
      and aa = a.Apps.Speedtest1.seconds
      and na = n.Apps.Speedtest1.seconds in
      let x, y, z = !tot in
      tot := (x +. la, y +. aa, z +. na);
      let paper =
        match
          List.find_opt (fun (num, _, _, _) -> num = l.Apps.Speedtest1.num) sqlite_paper
        with
        | Some (_, pl, pa, _) -> Printf.sprintf "| %5.2f %5.2f (%.2f)" pl pa (pa /. pl)
        | None -> ""
      in
      Printf.printf "%4d %-44s %8.4f %8.4f %8.4f %6.2f %s\n" l.Apps.Speedtest1.num
        l.Apps.Speedtest1.name la aa na
        (aa /. (la +. 1e-12))
        paper)
    lin;
  let x, y, z = !tot in
  add_result ~linux:x ~aster:y ~norm:(y /. x) ?percentiles:aster_pctls ?cpu:aster_cpu
    ?spans:aster_spans ~unit_:"virtual s" "table12/speedtest1_total";
  Printf.printf "%4s %-44s %8.3f %8.3f %8.3f %6.2f | 52.88 62.44 (1.18)\n" "" "TOTAL" x y z
    (y /. x);
  Printf.printf
    "strace diagnosis (aster run): %d small (<=8 byte) pwrite64/write calls; top syscalls:\n"
    small;
  List.iter (fun (n, c) -> Printf.printf "  %-12s %d\n" n c) (Aster.Strace.top 6)

(* --- Fig. 6 --- *)

let fig6 () =
  section "Fig. 6: IOMMU overhead, pooled vs dynamic DMA mappings";
  let fio_run profile =
    ignore (Apps.Runner.boot ~profile);
    let out = ref { Apps.Fio.write_mb_s = nan; read_cold_mb_s = nan; read_mb_s = nan } in
    Apps.Runner.spawn ~name:"fio" (fun c ->
        out := Apps.Fio.run c ~file:"/ext2/fio.dat" ~mbytes:(if !quick then 4 else 8);
        0);
    Apps.Runner.run ();
    !out
  in
  let bw_row = Apps.Lmbench.find "bw_tcp 64k (virtio)" in
  let variants =
    [
      ( "pooled (IOMMU)",
        { Sim.Profile.asterinas with Sim.Profile.blk_pooling_complete = true;
          name = "aster-pooled" } );
      ("dynamic (IOMMU)", Sim.Profile.with_dma_pooling false Sim.Profile.asterinas);
      ("no IOMMU", Sim.Profile.asterinas_no_iommu);
    ]
  in
  Printf.printf "%-18s %14s %14s %14s %14s\n" "variant" "fio write MB/s" "fio cold MB/s"
    "fio warm MB/s" "bw_tcp64k MB/s";
  List.iter
    (fun (name, profile) ->
      let f = fio_run profile in
      let bw = bw_row.Apps.Lmbench.run profile in
      Printf.printf "%-18s %14.0f %14.0f %14.0f %14.0f\n%!" name f.Apps.Fio.write_mb_s
        f.Apps.Fio.read_cold_mb_s f.Apps.Fio.read_mb_s bw)
    variants;
  print_endline "(paper: switching from pooled to dynamic degrades both block and network I/O)"

(* --- Fig. 7 --- *)

let fig7 () =
  section "Fig. 7: codebase growth, Asterinas (non-TCB) vs OSTD (TCB)";
  Printf.printf "%-8s %12s %12s\n" "month" "aster KLoC" "ostd KLoC";
  List.iter2
    (fun (a : Tcbaudit.Growth.point) (o : Tcbaudit.Growth.point) ->
      if a.month mod 6 = 0 then Printf.printf "%-8d %12.1f %12.1f\n" a.month a.kloc o.kloc)
    Tcbaudit.Growth.asterinas_series Tcbaudit.Growth.ostd_series;
  let fa = Tcbaudit.Growth.fit_quadratic Tcbaudit.Growth.asterinas_series in
  let fo = Tcbaudit.Growth.fit_linear Tcbaudit.Growth.ostd_series in
  Printf.printf "aster fit: %.2f + %.2f m + %.3f m^2  (rmse %.2f) -> super-linear\n"
    fa.Tcbaudit.Growth.intercept fa.Tcbaudit.Growth.slope fa.Tcbaudit.Growth.quadratic
    fa.Tcbaudit.Growth.rmse;
  Printf.printf "ostd  fit: %.2f + %.2f m              (rmse %.2f) -> controlled\n"
    fo.Tcbaudit.Growth.intercept fo.Tcbaudit.Growth.slope fo.Tcbaudit.Growth.rmse;
  Printf.printf "48-month projection: aster %.0f KLoC vs ostd %.0f KLoC\n"
    (Tcbaudit.Growth.project fa 48)
    (Tcbaudit.Growth.project fo 48)

(* --- Fig. 9 --- *)

let fig9 () =
  section "Fig. 9: UB case studies under KernMiri";
  List.iter
    (fun (o : Kernmiri.Cases.outcome) ->
      Printf.printf "%s\n  buggy variant detected: %b\n  fixed variant clean:    %b\n"
        o.Kernmiri.Cases.description o.Kernmiri.Cases.buggy_detected
        o.Kernmiri.Cases.fixed_clean)
    (Kernmiri.Cases.all ())

(* --- Ablations: the design choices DESIGN.md calls out --- *)

let ablations () =
  section "Ablations: cost of individual design choices";
  (* 1. Buddy per-CPU cache: single-frame alloc/free cycles. *)
  let alloc_cycles ~pcpu =
    Sim.Profile.set Sim.Profile.asterinas;
    Ostd.Boot.init ();
    Ostd.Task.inject_fifo_scheduler ();
    let b = Aster.Buddy.create ~pcpu_cache:pcpu () in
    Ostd.Falloc.inject (Aster.Buddy.as_frame_alloc b);
    Ostd.Boot.feed_free_memory ();
    (* Fragment the free lists so the slow path has work to do. *)
    let hold = List.init 64 (fun _ -> Ostd.Frame.alloc ~untyped:true ()) in
    List.iteri (fun i f -> if i mod 2 = 0 then Ostd.Frame.drop f) hold;
    let t0 = Sim.Clock.now () in
    for _ = 1 to 2000 do
      Ostd.Frame.drop (Ostd.Frame.alloc ~untyped:true ())
    done;
    List.iteri (fun i f -> if i mod 2 = 1 then Ostd.Frame.drop f) hold;
    Int64.to_int (Int64.sub (Sim.Clock.now ()) t0) / 2000
  in
  Printf.printf "%-44s %8d vs %8d cycles/op\n" "buddy per-CPU cache (on vs off)"
    (alloc_cycles ~pcpu:true) (alloc_cycles ~pcpu:false);
  (* 2. Slab magazine: kmalloc-style alloc/free cycles. *)
  let slab_cycles ~magazine =
    Sim.Profile.set Sim.Profile.asterinas;
    Ostd.Selftest.fresh_boot ();
    let c = Aster.Slab_policy.cache_create ~magazine ~name:"ablate" ~slot_size:64 () in
    let t0 = Sim.Clock.now () in
    for _ = 1 to 2000 do
      let s = Aster.Slab_policy.cache_alloc c in
      Aster.Slab_policy.cache_dealloc c s
    done;
    Int64.to_int (Int64.sub (Sim.Clock.now ()) t0) / 2000
  in
  Printf.printf "%-44s %8d vs %8d cycles/op\n" "slab per-CPU magazine (on vs off)"
    (slab_cycles ~magazine:true) (slab_cycles ~magazine:false);
  (* 3. GSO on the Linux virtio path (per-request CPU, not wire-capped). *)
  let lin_no_gso =
    { Sim.Profile.linux with Sim.Profile.tcp_gso = false; name = "linux-no-gso" }
  in
  let n_gso = if !quick then 800 else 2000 in
  Printf.printf "%-44s %8.0f vs %8.0f req/s\n" "GSO, Linux nginx 64k (on vs off)"
    (nginx_rps Sim.Profile.linux "f64k" n_gso)
    (nginx_rps lin_no_gso "f64k" n_gso);
  let bw = Apps.Lmbench.find "bw_tcp 64k (virtio)" in
  (* 4. Congestion control added to Asterinas. *)
  let aster_cc =
    { Sim.Profile.asterinas with Sim.Profile.tcp_congestion_control = true; name = "aster-cc" }
  in
  Printf.printf "%-44s %8.0f vs %8.0f MB/s\n" "Asterinas without vs with congestion ctrl"
    (bw.Apps.Lmbench.run Sim.Profile.asterinas)
    (bw.Apps.Lmbench.run aster_cc);
  (* 5. RCU-walk on the Linux lookup path. *)
  let open_row = Apps.Lmbench.find "lat_syscall open" in
  let lin_no_rcu =
    { Sim.Profile.linux with Sim.Profile.rcu_walk = false; name = "linux-no-rcuwalk" }
  in
  Printf.printf "%-44s %8.3f vs %8.3f us\n" "RCU-walk in Linux open(2) (on vs off)"
    (open_row.Apps.Lmbench.run Sim.Profile.linux)
    (open_row.Apps.Lmbench.run lin_no_rcu);
  (* 6. The paper's suggested fix, now the default: zero-copy sendfile.
     Ablate it OFF to show the bounce-buffer cost it removed. *)
  let aster_bounce =
    Sim.Profile.with_sendfile_zero_copy false
      { Sim.Profile.asterinas with Sim.Profile.name = "aster-bounce" }
  in
  let n = if !quick then 800 else 2000 in
  Printf.printf "%-44s %8.0f vs %8.0f req/s\n"
    "Asterinas nginx 64k: bounce vs zero-copy sendfile"
    (nginx_rps aster_bounce "f64k" n)
    (nginx_rps Sim.Profile.asterinas "f64k" n)

(* --- Bechamel host-time measurement of the checked fast paths --- *)

let bechamel_table8 () =
  section "Table 8 (bechamel: host wall-time of checked OSTD fast paths)";
  let open Bechamel in
  let open Bechamel.Toolkit in
  Sim.Profile.set Sim.Profile.asterinas;
  Ostd.Selftest.fresh_boot ();
  let frame = Ostd.Frame.alloc ~pages:2 ~untyped:true () in
  let buf = Bytes.create 4096 in
  let tests =
    Test.make_grouped ~name:"ostd" ~fmt:"%s %s"
      [
        Test.make ~name:"untyped_read_4k"
          (Staged.stage (fun () ->
               Ostd.Untyped.read_bytes frame ~off:0 ~buf ~pos:0 ~len:4096));
        Test.make ~name:"frame_alloc_drop"
          (Staged.stage (fun () -> Ostd.Frame.drop (Ostd.Frame.alloc ~untyped:true ())));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some (est :: _) -> Printf.printf "  %-28s %10.1f ns/op\n" name est
      | _ -> Printf.printf "  %-28s (no estimate)\n" name)
    results

(* --- Chaos: throughput cost of graceful degradation --- *)

let chaos_bench () =
  section "Chaos: fio throughput, clean vs under the fault plane (seed 42)";
  let fio_run ~faults =
    ignore (Apps.Runner.boot ~profile:Sim.Profile.asterinas);
    if faults then Sim.Fault.configure ~seed:42L Apps.Chaos.default_schedule;
    let out = ref { Apps.Fio.write_mb_s = nan; read_cold_mb_s = nan; read_mb_s = nan } in
    Apps.Runner.spawn ~name:"fio" (fun c ->
        out := Apps.Fio.run c ~file:"/ext2/fio.dat" ~mbytes:(if !quick then 4 else 8);
        0);
    Apps.Runner.run ();
    Sim.Fault.disable ();
    !out
  in
  let clean = fio_run ~faults:false in
  let faulty = fio_run ~faults:true in
  add_result ~linux:clean.Apps.Fio.write_mb_s ~aster:faulty.Apps.Fio.write_mb_s
    ~norm:(faulty.Apps.Fio.write_mb_s /. clean.Apps.Fio.write_mb_s)
    ?percentiles:(syscall_pctls ()) ?cpu:(prof_top3 ()) ?spans:(span_top3 ())
    ~unit_:"MB/s (clean vs faulted)" "chaos/fio_write";
  let pct a b = if a > 0. then 100. *. b /. a else nan in
  Printf.printf "%-22s %14s %14s\n" "variant" "fio write MB/s" "fio read MB/s";
  Printf.printf "%-22s %14.0f %14.0f\n" "clean" clean.Apps.Fio.write_mb_s
    clean.Apps.Fio.read_mb_s;
  Printf.printf "%-22s %14.0f %14.0f   (%.0f%% / %.0f%% of clean)\n" "fault schedule"
    faulty.Apps.Fio.write_mb_s faulty.Apps.Fio.read_mb_s
    (pct clean.Apps.Fio.write_mb_s faulty.Apps.Fio.write_mb_s)
    (pct clean.Apps.Fio.read_mb_s faulty.Apps.Fio.read_mb_s);
  Printf.printf "fault plane: %s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) (Sim.Stats.fault_report ())));
  print_endline
    "(retries and backoff trade throughput for liveness: no hangs, no corruption)"

(* --- fio sequential I/O: batching/readahead ablation --- *)

(* One fio run plus the blk.* counters that attribute the win: doorbells
   and completion IRQs per MiB, merged bios, readahead hits. Stats reset
   at boot, so the counters cover exactly this run. *)
let fio_stats_run ~mbytes profile =
  ignore (Apps.Runner.boot ~profile);
  let out = ref { Apps.Fio.write_mb_s = nan; read_cold_mb_s = nan; read_mb_s = nan } in
  Apps.Runner.spawn ~name:"fio" (fun c ->
      out := Apps.Fio.run c ~file:"/ext2/fio.dat" ~mbytes;
      0);
  Apps.Runner.run ();
  let per_mb n = float_of_int n /. float_of_int mbytes in
  ( !out,
    per_mb (Sim.Stats.get "blk.doorbell"),
    per_mb (Sim.Stats.get "blk.irq"),
    Sim.Stats.get "blk.merge",
    Sim.Stats.get "blk.readahead.hit" )

let fio_seq () =
  section "fio sequential I/O: batching + readahead ablation (ext2, cold cache)";
  let mbytes = if !quick then 4 else 8 in
  let base = Sim.Profile.asterinas in
  let variants =
    [
      ("batching+readahead", base);
      ("batching only", Sim.Profile.with_blk_readahead false base);
      ( "neither",
        Sim.Profile.with_blk_readahead false (Sim.Profile.with_blk_batching false base) );
    ]
  in
  let tbl = List.map (fun (name, p) -> (name, fio_stats_run ~mbytes p)) variants in
  Printf.printf "%-20s %11s %11s %11s %10s %8s %7s %7s\n" "variant" "write MB/s" "cold MB/s"
    "warm MB/s" "doorbl/MB" "irq/MB" "merged" "ra hit";
  List.iter
    (fun (name, (f, db, irq, merged, hit)) ->
      Printf.printf "%-20s %11.0f %11.0f %11.0f %10.1f %8.1f %7d %7d\n%!" name
        f.Apps.Fio.write_mb_s f.Apps.Fio.read_cold_mb_s f.Apps.Fio.read_mb_s db irq merged hit)
    tbl;
  let full, fdb, firq, _, _ = List.assoc "batching+readahead" tbl in
  let none, ndb, nirq, _, _ = List.assoc "neither" tbl in
  (* The "linux" column holds the ablated (off) variant, "aster" the full
     pipeline, so norm > 1 is the batching+readahead speedup. *)
  add_result ~linux:none.Apps.Fio.read_cold_mb_s ~aster:full.Apps.Fio.read_cold_mb_s
    ~norm:(full.Apps.Fio.read_cold_mb_s /. none.Apps.Fio.read_cold_mb_s)
    ~unit_:"MB/s" "table12/fio_seq_read_cold";
  add_result ~linux:none.Apps.Fio.write_mb_s ~aster:full.Apps.Fio.write_mb_s
    ~norm:(full.Apps.Fio.write_mb_s /. none.Apps.Fio.write_mb_s)
    ~unit_:"MB/s" "table12/fio_seq_write";
  add_result ~linux:ndb ~aster:fdb ~norm:(fdb /. ndb) ~unit_:"per MB"
    "table12/fio_doorbells_per_mb";
  add_result ~linux:nirq ~aster:firq ~norm:(firq /. nirq) ~unit_:"per MB"
    "table12/fio_irqs_per_mb";
  Printf.printf
    "batching+readahead vs neither: cold read %.2fx, write %.2fx; doorbells/MB %.0f -> %.0f, irqs/MB %.0f -> %.0f\n"
    (full.Apps.Fio.read_cold_mb_s /. none.Apps.Fio.read_cold_mb_s)
    (full.Apps.Fio.write_mb_s /. none.Apps.Fio.write_mb_s)
    ndb fdb nirq firq

(* --- fio fsync-per-write: what a journal commit costs --- *)

(* The fsync-heavy variant prices the crash-consistency plane: every
   4 KiB write is followed by fsync, so with the journal on each one is
   a full transaction commit (data sync + descriptor/content barrier +
   FUA commit record). Stats reset at boot; the counters cover exactly
   this run. *)
let fio_fsync_run ~mbytes profile =
  ignore (Apps.Runner.boot ~profile);
  let out = ref (nan, 0) in
  Apps.Runner.spawn ~name:"fio-fsync" (fun c ->
      out := Apps.Fio.run_fsync c ~file:"/ext2/fiof.dat" ~mbytes;
      0);
  Apps.Runner.run ();
  let mb_s, fsyncs = !out in
  ( mb_s,
    fsyncs,
    Sim.Stats.get "jbd.commit",
    Sim.Stats.get "blk.flush",
    Sim.Stats.get "blk.fua" )

let fio_fsync () =
  section "fio fsync-per-write: ext2 journal commit cost";
  let mbytes = if !quick then 1 else 2 in
  let mb_on, fs_on, commits, flush_on, fua_on = fio_fsync_run ~mbytes Sim.Profile.asterinas in
  let mb_off, fs_off, _, flush_off, _ =
    fio_fsync_run ~mbytes (Sim.Profile.with_ext2_journal false Sim.Profile.asterinas)
  in
  Printf.printf "%-12s %9s %8s %9s %9s %6s\n" "journal" "MB/s" "fsyncs" "commits" "flushes" "FUA";
  Printf.printf "%-12s %9.1f %8d %9d %9d %6d\n" "on" mb_on fs_on commits flush_on fua_on;
  Printf.printf "%-12s %9.1f %8d %9d %9d %6d\n%!" "off" mb_off fs_off 0 flush_off 0;
  add_result ~linux:mb_off ~aster:mb_on ~norm:(mb_on /. mb_off) ~unit_:"MB/s"
    "crash/fio_fsync_write";
  Printf.printf
    "journaling costs %.0f%% on the fsync-per-write path (%d commits, %d FUA records)\n"
    (100. *. (1. -. (mb_on /. mb_off)))
    commits fua_on

(* --- bw_tcp: TX batching / IRQ coalescing ablation --- *)

(* One bw_tcp run plus the net.* counters that attribute the win:
   doorbells and IRQs per MiB, bursts submitted, RX arrivals coalesced.
   The row boots its own kernel, which resets Stats, so the counters
   cover exactly this run (4 MiB guest -> host). *)
let bw_tcp_stats_run profile =
  let row = Apps.Lmbench.find "bw_tcp 64k (virtio)" in
  let mb_s = row.Apps.Lmbench.run profile in
  let per_mb n = float_of_int n /. 4.0 in
  ( mb_s,
    per_mb (Sim.Stats.get "net.doorbell"),
    per_mb (Sim.Stats.get "net.irq"),
    Sim.Stats.get "net.burst",
    Sim.Stats.get "net.coalesced_rx" )

let bw_tcp_batch () =
  section "bw_tcp: TX batching + IRQ coalescing ablation (virtio, 64k writes)";
  (* Offload-free on purpose: this ablation isolates the PR-5 batching
     and coalescing mechanics against the software-segmentation
     baseline (descriptor == wire frame), keeping the committed
     table12 rows comparable across the offload work. The offload wins
     have their own matrix (the [offloads] target). *)
  let base = Sim.Profile.with_all_offloads false Sim.Profile.asterinas in
  let variants =
    [
      ("batching+coalesce", base);
      ("batching only", Sim.Profile.with_net_irq_coalesce false base);
      ( "neither",
        Sim.Profile.with_net_irq_coalesce false (Sim.Profile.with_net_tx_batching false base) );
    ]
  in
  let tbl = List.map (fun (name, p) -> (name, bw_tcp_stats_run p)) variants in
  Printf.printf "%-20s %11s %10s %8s %8s %8s\n" "variant" "bw MB/s" "doorbl/MB" "irq/MB"
    "bursts" "coal rx";
  List.iter
    (fun (name, (mb, db, irq, bursts, coal)) ->
      Printf.printf "%-20s %11.0f %10.1f %8.1f %8d %8d\n%!" name mb db irq bursts coal)
    tbl;
  let full, fdb, firq, _, _ = List.assoc "batching+coalesce" tbl in
  let none, ndb, nirq, _, _ = List.assoc "neither" tbl in
  (* The "linux" column holds the ablated (off) variant, "aster" the full
     pipeline, so norm > 1 is the batching+coalescing speedup. *)
  add_result ~linux:none ~aster:full ~norm:(full /. none) ~unit_:"MB/s" "table12/bw_tcp_batch";
  add_result ~linux:ndb ~aster:fdb ~norm:(fdb /. ndb) ~unit_:"per MB"
    "table12/net_doorbells_per_mb";
  add_result ~linux:nirq ~aster:firq ~norm:(firq /. nirq) ~unit_:"per MB"
    "table12/net_irqs_per_mb";
  (* Batching must not tax the single-segment path: a ping-pong burst is
     one segment, so plug/flush adds no doorbells and no latency. The
     comparison holds IRQ coalescing constant (the deployed config) so
     it isolates the plug/flush cost alone. The "neither" latency is
     reported too: without coalescing, per-completion interrupts trip
     the kernel's IRQ-storm throttle (mask + 300 us recovery polls),
     which dominates the uncoalesced ping-pong.  *)
  let lat = Apps.Lmbench.find "lat_tcp (virtio)" in
  let lat_on = lat.Apps.Lmbench.run base in
  let lat_off = lat.Apps.Lmbench.run (Sim.Profile.with_net_tx_batching false base) in
  let lat_none =
    lat.Apps.Lmbench.run
      (Sim.Profile.with_net_irq_coalesce false (Sim.Profile.with_net_tx_batching false base))
  in
  add_result ~linux:lat_off ~aster:lat_on ~norm:(lat_on /. lat_off) ~unit_:"us"
    "table12/lat_tcp_batch";
  Printf.printf
    "batching+coalesce vs neither: bw_tcp %.2fx; doorbells/MB %.0f -> %.0f, irqs/MB %.0f -> %.0f\n"
    (full /. none) ndb fdb nirq firq;
  Printf.printf
    "lat_tcp: batching on %.2f us vs off %.2f us (%+.1f%%, coalescing fixed on); uncoalesced %.2f us (IRQ-storm throttled)\n"
    lat_on lat_off
    (100. *. ((lat_on /. lat_off) -. 1.))
    lat_none

(* --- Offload matrix: gso / gro / csum / zero-copy on-off ablation --- *)

(* One row per knob, each measured three ways: guest-TX bw_tcp (TSO +
   csum-tx + the copy ledger), host->guest bw_tcp_rx (GRO + csum-rx),
   and nginx f64k (zero-copy sendfile end to end). Recipe documented in
   EXPERIMENTS.md. *)
let offload_matrix () =
  section "Offload ablation: GSO/GRO/checksum/zero-copy matrix";
  let base = Sim.Profile.asterinas in
  let variants =
    [
      ("all-on", base);
      ("no-gso", Sim.Profile.with_tcp_gso false base);
      ("no-gro", Sim.Profile.with_net_gro false base);
      ("no-csum", Sim.Profile.with_csum_offload false base);
      ("no-zerocopy", Sim.Profile.with_sendfile_zero_copy false base);
      ("all-off", Sim.Profile.with_all_offloads false base);
    ]
  in
  let n_http = if !quick then 300 else 1000 in
  let bw_tx_row = Apps.Lmbench.find "bw_tcp 64k (virtio)" in
  Printf.printf "%-12s %10s %12s %12s %10s %12s %10s\n" "variant" "tx MB/s" "copied B/MB"
    "rx MB/s" "rx_call/MB" "gro_merged" "nginx r/s";
  List.iter
    (fun (name, p) ->
      let tx = bw_tx_row.Apps.Lmbench.run p in
      let copied = float_of_int (Sim.Stats.get "net.bytes_copied") /. 4.0 in
      let rx = Apps.Lmbench.bw_tcp_rx_virtio ~msg:65536 p in
      let rx_calls = float_of_int (Sim.Stats.get "tcp.rx_calls") /. 4.0 in
      let merged = Sim.Stats.get "net.gro_merged" in
      let rps = nginx_rps p "f64k" n_http in
      Printf.printf "%-12s %10.0f %12.0f %12.0f %10.0f %12d %10.0f\n%!" name tx copied rx
        rx_calls merged rps;
      add_result ~aster:tx ~unit_:"MB/s" (Printf.sprintf "offloads/%s/bw_tcp_tx" name);
      add_result ~aster:copied ~unit_:"bytes per MB"
        (Printf.sprintf "offloads/%s/tx_bytes_copied_per_mb" name);
      add_result ~aster:rx ~unit_:"MB/s" (Printf.sprintf "offloads/%s/bw_tcp_rx" name);
      add_result ~aster:rx_calls ~unit_:"per MB"
        (Printf.sprintf "offloads/%s/rx_charges_per_mb" name);
      add_result ~aster:rps ~unit_:"req/s" (Printf.sprintf "offloads/%s/nginx_f64k" name))
    variants

(* --- c10k: epoll readiness at connection scale --- *)

let c10k_row ~conns ~rounds ~batch ~churn =
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  Apps.C10k.spawn_server ();
  let out = ref None in
  Apps.C10k.run ~host ~conns ~rounds ~batch ~churn ~on_done:(fun r -> out := Some r);
  Apps.Runner.run ();
  match !out with None -> failwith "c10k: driver did not finish" | Some r -> r

(* Mostly-idle pool with churn: the echo tail and the per-wait sweep
   must not grow with the idle crowd (epoll is O(ready)). The churn
   knob prices registration/teardown on the same path; knob table in
   EXPERIMENTS.md. *)
let c10k () =
  section "c10k: epoll echo under mostly-idle connections + churn";
  let rows = if !quick then [ 500; 2000 ] else [ 2500; 10000; 25000 ] in
  Printf.printf "%-8s %8s %8s %10s %10s %10s %12s %10s\n" "conns" "pings" "churned" "p50 us"
    "p99 us" "max us" "scan/wait" "waits";
  List.iter
    (fun conns ->
      let r = c10k_row ~conns ~rounds:20 ~batch:32 ~churn:10 in
      add_result ~aster:r.Apps.C10k.p99_us ~unit_:"us"
        (Printf.sprintf "c10k/%d/p99_wakeup" conns);
      add_result ~aster:r.Apps.C10k.scan_per_wait ~unit_:"entries/wait"
        (Printf.sprintf "c10k/%d/scan_per_wait" conns);
      Printf.printf "%-8d %8d %8d %10.1f %10.1f %10.1f %12.2f %10d\n%!" r.Apps.C10k.conns
        r.Apps.C10k.pings r.Apps.C10k.churned r.Apps.C10k.p50_us r.Apps.C10k.p99_us
        r.Apps.C10k.max_us r.Apps.C10k.scan_per_wait r.Apps.C10k.wait_calls)
    rows

(* --- Smoke: fast CI gate over the batched pipelines (@bench-smoke) --- *)

let smoke () =
  section "bench smoke: batched block pipeline sanity";
  let mbytes = 2 in
  let base = Sim.Profile.asterinas in
  let full, fdb, firq, merged, hit = fio_stats_run ~mbytes base in
  let none, ndb, nirq, _, _ =
    fio_stats_run ~mbytes
      (Sim.Profile.with_blk_readahead false (Sim.Profile.with_blk_batching false base))
  in
  let speedup = full.Apps.Fio.read_cold_mb_s /. none.Apps.Fio.read_cold_mb_s in
  Printf.printf
    "cold read %.0f -> %.0f MB/s (%.2fx); doorbells/MB %.0f -> %.0f; irqs/MB %.0f -> %.0f; merged %d; ra hits %d\n"
    none.Apps.Fio.read_cold_mb_s full.Apps.Fio.read_cold_mb_s speedup ndb fdb nirq firq merged
    hit;
  let fail = ref false in
  let expect name ok = if not ok then begin fail := true; Printf.printf "FAIL: %s\n" name end in
  expect "batching+readahead speeds cold sequential read by >=1.2x" (speedup >= 1.2);
  expect "batching merges bios" (merged > 0);
  expect "readahead window produces demand hits" (hit > 0);
  expect "batching cuts doorbells per MB" (fdb < ndb);
  expect "batching cuts completion IRQs per MB" (firq < nirq);
  print_endline "bench smoke: batched network pipeline sanity";
  (* Offload-free, like the bw_tcp_batch ablation: these gates pin the
     PR-5 batching mechanics under software segmentation, where one
     descriptor is one wire frame. *)
  let swseg = Sim.Profile.with_all_offloads false Sim.Profile.asterinas in
  let nfull, nfdb, nfirq, bursts, _ = bw_tcp_stats_run swseg in
  let nnone, nndb, nnirq, _, _ =
    bw_tcp_stats_run
      (Sim.Profile.with_net_irq_coalesce false (Sim.Profile.with_net_tx_batching false swseg))
  in
  Printf.printf
    "bw_tcp %.0f -> %.0f MB/s (%.2fx); doorbells/MB %.0f -> %.0f; irqs/MB %.0f -> %.0f; bursts %d\n"
    nnone nfull (nfull /. nnone) nndb nfdb nnirq nfirq bursts;
  expect "TX batching speeds bw_tcp by >=1.2x" (nfull >= 1.2 *. nnone);
  expect "TX bursts were submitted" (bursts > 0);
  expect "batching+coalescing cuts net doorbells+IRQs per MB >=5x"
    (5. *. (nfdb +. nfirq) <= nndb +. nnirq);
  let lat = Apps.Lmbench.find "lat_tcp (virtio)" in
  let lat_on = lat.Apps.Lmbench.run swseg in
  let lat_off = lat.Apps.Lmbench.run (Sim.Profile.with_net_tx_batching false swseg) in
  Printf.printf "lat_tcp batching on %.2f us vs off %.2f us\n" lat_on lat_off;
  expect "TX batching does not tax single-segment latency (>5%)" (lat_on <= lat_off *. 1.05);
  print_endline "bench smoke: segmentation offload + zero-copy pipeline sanity";
  (* Tentpole gates: GSO+GRO+csum+zero-copy are on by default; each
     gate compares the default pipeline against the software baseline
     and checks the committed pre-offload numbers still reproduce. *)
  let rx_stats p =
    let mb_s = Apps.Lmbench.bw_tcp_rx_virtio ~msg:65536 p in
    ( mb_s,
      float_of_int (Sim.Stats.get "tcp.rx_calls") /. 4.0,
      Sim.Stats.get "net.gro_merged" )
  in
  let rx_on, calls_on, merged_on = rx_stats base in
  let rx_off, calls_off, _ = rx_stats swseg in
  Printf.printf
    "bw_tcp_rx (host->guest): %.0f MB/s, charge_rx %.0f/MB, gro_merged %d (GRO on) | %.0f MB/s, %.0f/MB (off)\n"
    rx_on calls_on merged_on rx_off calls_off;
  expect "GRO merges RX segments" (merged_on > 0);
  expect "GRO cuts stack charge_rx invocations per MB >=5x" (5. *. calls_on <= calls_off);
  expect "GRO does not slow the RX stream" (rx_on >= rx_off *. 0.95);
  let nginx_copied p n =
    let rps = nginx_rps p "f64k" n in
    let mb = float_of_int (n * 65536) /. 1048576. in
    (rps, float_of_int (Sim.Stats.get "net.bytes_copied") /. mb)
  in
  let n_http = 400 in
  let ast_rps, zc_copied = nginx_copied base n_http in
  let _, bounce_copied = nginx_copied (Sim.Profile.with_sendfile_zero_copy false base) n_http in
  let lin_rps, _ = nginx_copied Sim.Profile.linux n_http in
  Printf.printf
    "nginx f64k: aster %.0f vs linux %.0f req/s (norm %.3f); sendfile copies %.0f -> %.0f bytes/MB\n"
    ast_rps lin_rps (ast_rps /. lin_rps) bounce_copied zc_copied;
  expect "zero-copy+GSO lift nginx_f64k to parity (norm >= 1.0)" (ast_rps >= lin_rps);
  expect "zero-copy sendfile cuts bytes-copied/MB >=2x" (2. *. zc_copied <= bounce_copied);
  (* The knobs-off path must still BE the pre-offload pipeline: the
     same-seed run reproduces the committed bw_tcp_batch row exactly
     (tolerance covers float printing only, not behaviour). *)
  let frozen_bw = 1140.24 and frozen_db = 175.0 and frozen_irq = 3.0 in
  Printf.printf "all-offloads-off bw_tcp: %.2f MB/s, %.1f doorbells/MB, %.1f irqs/MB (committed %.2f / %.0f / %.0f)\n"
    nfull nfdb nfirq frozen_bw frozen_db frozen_irq;
  expect "all-offloads-off reproduces the committed bw_tcp pipeline byte-for-byte"
    (Float.abs (nfull -. frozen_bw) /. frozen_bw < 0.001
    && Float.abs (nfdb -. frozen_db) < 0.5
    && Float.abs (nfirq -. frozen_irq) < 0.5);
  print_endline "bench smoke: crash-consistency plane cost";
  (* [full] above already runs with the journal on (the default
     profile); only the cold-read path is gated — journaling is a
     write-side mechanism and must stay off the read path. *)
  let nojournal, _, _, _, _ =
    fio_stats_run ~mbytes (Sim.Profile.with_ext2_journal false base)
  in
  Printf.printf "fio_seq cold read: journal on %.0f MB/s vs off %.0f MB/s (%.2fx)\n"
    full.Apps.Fio.read_cold_mb_s nojournal.Apps.Fio.read_cold_mb_s
    (full.Apps.Fio.read_cold_mb_s /. nojournal.Apps.Fio.read_cold_mb_s);
  expect "journaling costs <=15% on the fio_seq cold-read path"
    (full.Apps.Fio.read_cold_mb_s >= 0.85 *. nojournal.Apps.Fio.read_cold_mb_s);
  let fmb, ffs, fcommits, _, ffua = fio_fsync_run ~mbytes:1 base in
  Printf.printf "fio fsync-per-write: %.1f MB/s, %d fsyncs -> %d commits, %d FUA records\n"
    fmb ffs fcommits ffua;
  expect "fsync-heavy run commits once per fsync" (ffs > 0 && fcommits >= ffs);
  expect "commit records are written FUA" (ffua > 0);
  print_endline "bench smoke: probe plane cost (must be exactly zero)";
  (* The probe VM charges no virtual cycles, so a run with the always-on
     watchdogs (the default boot), a run with every probe detached, and
     a run with extra programs attached must all be byte-identical: same
     virtual end time, same MB/s, same-seed same-everything. Any drift
     means a probe consumer leaked cost or state into the kernel. *)
  let probe_fio_run ~detach ~extra () =
    Aster.Kernel.boot_probes := extra;
    ignore (Apps.Runner.boot ~profile:base);
    Aster.Kernel.boot_probes := [];
    if detach then Kprobe.Registry.reset ();
    let out = ref { Apps.Fio.write_mb_s = nan; read_cold_mb_s = nan; read_mb_s = nan } in
    Apps.Runner.spawn ~name:"fio" (fun c ->
        out := Apps.Fio.run c ~file:"/ext2/fio.dat" ~mbytes;
        0);
    Apps.Runner.run ();
    (!out, Sim.Clock.now ())
  in
  let watchdogs, t_watchdogs = probe_fio_run ~detach:false ~extra:[] () in
  let detached, t_detached = probe_fio_run ~detach:true ~extra:[] () in
  let attached, t_attached =
    probe_fio_run ~detach:false
      ~extra:
        (List.filter_map Kprobe.Templates.by_name
           [ "blk.lat"; "syscall.count"; "read_lat_by_fd" ])
      ()
  in
  let blk_lat_count =
    match Kprobe.Registry.find "blk.lat" with
    | None -> 0
    | Some l -> (
      match Hashtbl.find_opt l.Kprobe.Registry.store.Kprobe.Maps.hists "lat_us" with
      | Some h -> Sim.Hist.count h
      | None -> 0)
  in
  Printf.printf
    "fio_seq cold read: watchdogs %.3f MB/s @%Ld | detached %.3f MB/s @%Ld | +3 probes \
     %.3f MB/s @%Ld (blk.lat observed %d bios)\n"
    watchdogs.Apps.Fio.read_cold_mb_s t_watchdogs detached.Apps.Fio.read_cold_mb_s
    t_detached attached.Apps.Fio.read_cold_mb_s t_attached blk_lat_count;
  let fio_equal a b =
    a.Apps.Fio.write_mb_s = b.Apps.Fio.write_mb_s
    && a.Apps.Fio.read_cold_mb_s = b.Apps.Fio.read_cold_mb_s
    && a.Apps.Fio.read_mb_s = b.Apps.Fio.read_mb_s
  in
  expect "detached probes leave fio_seq byte-identical (virtual end time)"
    (Int64.equal t_watchdogs t_detached);
  expect "detached probes leave fio_seq byte-identical (MB/s)" (fio_equal watchdogs detached);
  expect "attached probes cost zero on fio_seq (virtual end time)"
    (Int64.equal t_watchdogs t_attached);
  expect "attached probes cost zero on fio_seq (MB/s)" (fio_equal watchdogs attached);
  expect "attached blk.lat probe observed the run" (blk_lat_count > 0);
  let bw_default, _, _, _, _ = bw_tcp_stats_run base in
  Aster.Kernel.boot_probes := List.filter_map Kprobe.Templates.by_name [ "net.bytes" ];
  let bw_probed, _, _, _, _ = bw_tcp_stats_run base in
  Aster.Kernel.boot_probes := [];
  Printf.printf "bw_tcp 64k: default %.3f MB/s | +net.bytes probe %.3f MB/s\n" bw_default
    bw_probed;
  expect "attached net.bytes probe costs zero on bw_tcp" (bw_default = bw_probed);
  print_endline "bench smoke: span plane cost (must be exactly zero)";
  (* The span plane makes the same promise as the probe VM: zero virtual
     cycles, no RNG draws. A span-off run must be byte-identical to the
     span-on runs above (same MB/s, same virtual end time), and turning
     spans back on must land on exactly the same end cycle. [full] and
     [bw_default] above already ran span-on (the harness enables kspan
     at startup), so they are the baselines. *)
  let with_span on f =
    if on then begin Sim.Span.enable (); Sim.Span.set_auto true end
    else begin Sim.Span.disable (); Sim.Span.set_auto false end;
    let r = f () in
    (r, Sim.Clock.now ())
  in
  let (fio_off, _, _, _, _), t_fio_off = with_span false (fun () -> fio_stats_run ~mbytes base) in
  let (fio_on, _, _, _, _), t_fio_on = with_span true (fun () -> fio_stats_run ~mbytes base) in
  let fio_spans = Sim.Span.finished_count () in
  let fio_residual = Sim.Span.max_residual_frac () in
  let (bw_off, _, _, _, _), t_bw_off = with_span false (fun () -> bw_tcp_stats_run base) in
  let (bw_on, _, _, _, _), t_bw_on = with_span true (fun () -> bw_tcp_stats_run base) in
  Printf.printf
    "fio_seq: span off %.3f MB/s @%Ld | span on %.3f MB/s @%Ld (%d spans, worst residual %.4f)\n"
    fio_off.Apps.Fio.read_cold_mb_s t_fio_off fio_on.Apps.Fio.read_cold_mb_s t_fio_on
    fio_spans fio_residual;
  Printf.printf "bw_tcp 64k: span off %.3f MB/s @%Ld | span on %.3f MB/s @%Ld\n" bw_off
    t_bw_off bw_on t_bw_on;
  expect "span-off fio_seq byte-identical to span-on baseline (MB/s)" (fio_equal fio_off full);
  expect "span-on adds zero virtual cycles to fio_seq (same end cycle)"
    (Int64.equal t_fio_off t_fio_on);
  expect "span-on fio_seq byte-identical (MB/s)" (fio_equal fio_off fio_on);
  expect "span-off bw_tcp byte-identical to span-on baseline (MB/s)" (bw_off = bw_default);
  expect "span-on adds zero virtual cycles to bw_tcp (same end cycle)"
    (Int64.equal t_bw_off t_bw_on);
  expect "span plane observed the fio run" (fio_spans > 0);
  expect "span critical path attributes >=95% of tail wall time" (fio_residual < 0.05);
  print_endline "bench smoke: epoll readiness at connection scale";
  (* O(ready), not O(fds): quadrupling the idle pool must leave both
     the per-wait sweep and the echo tail flat. The 10k row is the
     acceptance floor: >=10k live mostly-idle connections with churn. *)
  let small = c10k_row ~conns:2500 ~rounds:20 ~batch:32 ~churn:10 in
  let big = c10k_row ~conns:10000 ~rounds:20 ~batch:32 ~churn:10 in
  Printf.printf
    "c10k: 2500 conns p99 %.1f us scan/wait %.2f | 10000 conns p99 %.1f us scan/wait %.2f (%d pings, %d churned)\n"
    small.Apps.C10k.p99_us small.Apps.C10k.scan_per_wait big.Apps.C10k.p99_us
    big.Apps.C10k.scan_per_wait big.Apps.C10k.pings big.Apps.C10k.churned;
  expect "c10k holds >=10k mostly-idle connections through churn"
    (big.Apps.C10k.conns >= 10000 && big.Apps.C10k.pings > 0 && big.Apps.C10k.churned > 0);
  expect "epoll_wait sweep is O(ready): scan/wait flat as idle pool grows 4x"
    (big.Apps.C10k.scan_per_wait <= 2. *. small.Apps.C10k.scan_per_wait);
  expect "p99 wakeup latency independent of idle-connection count"
    (big.Apps.C10k.p99_us <= 1.5 *. small.Apps.C10k.p99_us);
  if !fail then exit 1 else print_endline "bench smoke: OK"

(* --- Regression gate: bench --compare BASELINE.json --- *)

(* Minimal parser for the JSON this harness writes: each result object
   sits on its own line, so field extraction is line-local. Only the
   fields the gate needs are read. *)
let str_find s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let line_field_string line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  match str_find line pat with
  | None -> None
  | Some i -> (
    let start = i + String.length pat in
    match String.index_from_opt line start '"' with
    | None -> None
    | Some j -> Some (String.sub line start (j - start)))

let line_field_number line key =
  let pat = Printf.sprintf "\"%s\": " key in
  match str_find line pat with
  | None -> None
  | Some i ->
    let start = i + String.length pat in
    let j = ref start in
    let num c = match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !j < String.length line && num line.[!j] do
      incr j
    done;
    if !j = start then None else float_of_string_opt (String.sub line start (!j - start))

let read_baseline path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match (line_field_string line "benchmark", line_field_number line "aster") with
       | Some b, Some v ->
         let u = Option.value ~default:"" (line_field_string line "unit") in
         rows := (b, (u, v)) :: !rows
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  !rows

(* Latency-style units regress upward, throughput-style downward. *)
let lower_is_better u =
  let u = String.lowercase_ascii u in
  str_find u "mb/s" = None && str_find u "req/s" = None && str_find u "ops" = None

let compare_with_baseline path =
  let base = read_baseline path in
  let checked = ref 0 in
  let regressions = ref [] in
  List.iter
    (fun r ->
      match r.aster with
      | Some v -> (
        match List.assoc_opt r.benchmark base with
        | Some (u, bv) when Float.abs bv > 1e-9 ->
          incr checked;
          let delta = if lower_is_better u then (v -. bv) /. bv else (bv -. v) /. bv in
          if delta > 0.10 then regressions := (r.benchmark, u, bv, v, delta) :: !regressions
        | _ -> ())
      | _ -> ())
    !results;
  Printf.printf "\ncompare vs %s: %d metrics checked, %d regressed >10%%\n" path
    !checked
    (List.length !regressions);
  List.iter
    (fun (b, u, bv, v, d) ->
      Printf.printf "  REGRESSION %-40s %s: baseline %.4g -> %.4g (%.0f%% worse)\n" b u bv v
        (100. *. d))
    (List.rev !regressions);
  if !regressions <> [] then exit 1

let all_targets =
  [
    ("table1", table1);
    ("table3", table3);
    ("table7", table7);
    ("table8", table8);
    ("table9", table9);
    ("table10", table10);
    ("table11", table11);
    ("table12", table12);
    ("fig5a", fig5a);
    ("fig5b", fig5b);
    ("fig5c", table12);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig9", fig9);
    ("ablations", ablations);
    ("bechamel", bechamel_table8);
    ("chaos", chaos_bench);
    ("fio_seq", fio_seq);
    ("fio_fsync", fio_fsync);
    ("bw_tcp_batch", bw_tcp_batch);
    ("offloads", offload_matrix);
    ("c10k", c10k);
    ("smoke", smoke);
  ]

let default_order =
  [
    "table1"; "table3"; "table7"; "table8"; "table9"; "table10"; "fig5a"; "table11"; "table12";
    "fig6"; "fio_seq"; "fio_fsync"; "bw_tcp_batch"; "offloads"; "c10k"; "fig7"; "fig9";
    "ablations"; "bechamel";
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path = ref None in
  let baseline = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "quick" :: rest ->
      quick := true;
      parse acc rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse acc rest
    | "--json" :: [] ->
      prerr_endline "--json requires a file argument";
      exit 2
    | "--compare" :: path :: rest ->
      baseline := Some path;
      parse acc rest
    | "--compare" :: [] ->
      prerr_endline "--compare requires a baseline JSON file argument";
      exit 2
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] args in
  Apps.Libc.install_child_resolver ();
  (* kprof rides along for the cpu breakdown in the JSON: it charges no
     virtual cycles, so measured numbers are unchanged. *)
  Sim.Prof.enable ();
  (* kspan rides along the same way for the p99 critical-path column:
     auto syscall/app spans charge no virtual cycles either (the smoke
     target gates this with an end-cycle comparison). *)
  Sim.Span.enable ();
  Sim.Span.set_auto true;
  let targets = if args = [] then default_order else args in
  List.iter
    (fun t ->
      match List.assoc_opt t all_targets with
      | Some f -> f ()
      | None -> Printf.printf "unknown target: %s\n" t)
    targets;
  (* The committed BENCH_results.json only ever holds the full default
     run: a subset invocation (smoke, one ablation) writes it only where
     --json explicitly says to, instead of clobbering the trajectory
     file with a partial result set. *)
  (match (!json_path, args) with
  | Some path, _ -> write_json ~path ~targets
  | None, [] -> write_json ~path:"BENCH_results.json" ~targets
  | None, _ :: _ -> ());
  (* Regression gate last, after the JSON is safely on disk: exits
     non-zero when any metric is >10% worse than the baseline. *)
  match !baseline with None -> () | Some path -> compare_with_baseline path
