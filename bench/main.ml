(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6). Run everything, or name targets:

     dune exec bench/main.exe                   # everything
     dune exec bench/main.exe -- table7 fig5a   # a subset
     dune exec bench/main.exe -- quick fig5a    # reduced iteration counts

   Measured numbers come from the simulator's virtual clock; the paper's
   published values are printed alongside so the shape can be compared
   directly. *)

let quick = ref false
let sized ~quick:q full = if !quick then q else full

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

(* --- Rows ---

   A row is the only thing a recording target produces. One printer,
   the JSON writer (BENCH_results.json, schema in EXPERIMENTS.md), the
   smoke gates and --compare all work over the row list. *)

type better = Higher | Lower

type pctls = { pcount : int; p50 : float; p90 : float; p99 : float; pmax : float }

(* Where the aster-profile run's time went: syscall-latency percentiles,
   the top-3 kprof scopes, and the top-3 critical-path segments of the
   dominant span class's p99 span. *)
type obs = {
  percentiles : pctls option;
  cpu : Sim.Prof.frame_stat list option;
  p99_path : (string * (string * int64) list) option;
}

type row = {
  name : string;
  unit_ : string;
  better : better;  (* the direction --compare gates the aster value in *)
  linux : float option;
  aster : float option;
  norm : float option;
  paper : float option;  (* the paper's norm; printed, not written *)
  obs : obs;
}

let no_obs = { percentiles = None; cpu = None; p99_path = None }

let row ?linux ?aster ?norm ?paper ?(obs = no_obs) ~better ~unit_ name =
  { name; unit_; better; linux; aster; norm; paper; obs }

(* A linux-vs-aster pair with norm = aster/linux. Ablation rows put the
   ablated (off) variant in the linux column, so norm > 1 is the
   mechanism's speedup. *)
let pair ?paper ?obs ~better ~unit_ name linux aster =
  row ~linux ~aster ~norm:(aster /. linux) ?paper ?obs ~better ~unit_ name

(* The obs group of the most recent run. Each boot resets the
   histograms, kprof attribution and kspan reservoirs, and both
   profilers charge no virtual cycles, so calling this right after an
   aster-profile run captures exactly that run. *)
let observe () =
  let percentiles =
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
  in
  let cpu = match Sim.Prof.top_scopes ~limit:3 () with [] -> None | fs -> Some fs in
  let p99_path =
    Option.bind (Sim.Span.dominant_class ()) (fun cls ->
        Option.bind (Sim.Span.class_p99 cls) (fun i ->
            match List.filteri (fun k _ -> k < 3) i.Sim.Span.i_path with
            | [] -> None
            | top -> Some (cls, top)))
  in
  { percentiles; cpu; p99_path }

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

let json_of_row r =
  let pj =
    match r.obs.percentiles with
    | None -> "null"
    | Some p ->
      Printf.sprintf {|{"count": %d, "p50": %s, "p90": %s, "p99": %s, "max": %s}|} p.pcount
        (json_float p.p50) (json_float p.p90) (json_float p.p99) (json_float p.pmax)
  in
  let cj =
    match r.obs.cpu with
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
    match r.obs.p99_path with
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
    (json_escape r.name) (json_escape r.unit_) (json_opt_float r.linux)
    (json_opt_float r.aster) (json_opt_float r.norm) pj cj sj

let write_json ~path ~targets rows =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"schema\": \"asterinas-sim-bench/3\",\n  \"quick\": %b,\n  \"targets\": [%s],\n  \"results\": [\n%s\n  ]\n}\n"
    !quick
    (String.concat ", " (List.map (fun t -> "\"" ^ json_escape t ^ "\"") targets))
    (String.concat ",\n" (List.map json_of_row rows));
  close_out oc;
  Printf.printf "\nwrote %d benchmark results to %s\n" (List.length rows) path

let print_rows = function
  | [] -> ()
  | rows ->
    let cell = function None -> "-" | Some f -> Printf.sprintf "%.6g" f in
    let line = Printf.printf "%-44s %12s %12s %9s %9s  %-6s %s\n" in
    line "row" "linux" "aster" "norm" "paper" "better" "unit";
    List.iter
      (fun r ->
        line r.name (cell r.linux) (cell r.aster) (cell r.norm) (cell r.paper)
          (match r.better with Higher -> "higher" | Lower -> "lower")
          r.unit_)
      rows;
    flush stdout

(* A gate is a named predicate over a target's rows: its two arguments
   read the aster and the linux value of a row by name. *)
type gate = string * ((string -> float) -> (string -> float) -> bool)

let gates_failed = ref false

let check_gates rows = function
  | [] -> ()
  | gates ->
    let value field n =
      match List.find_opt (fun r -> r.name = n) rows with
      | Some r -> Option.value (field r) ~default:nan
      | None -> invalid_arg ("gate reads unknown row " ^ n)
    in
    let aster = value (fun r -> r.aster) and linux = value (fun r -> r.linux) in
    let failed = List.filter (fun (_, ok) -> not (ok aster linux)) gates in
    List.iter (fun (name, _) -> Printf.printf "FAIL: %s\n" name) failed;
    Printf.printf "gates: %d of %d passed\n" (List.length gates - List.length failed)
      (List.length gates);
    if failed <> [] then gates_failed := true

(* --- Reading a results file back (--compare, the smoke pin gate) ---

   The JSON this harness writes keeps each result object on one line.
   Returns the [(benchmark, aster)] rows in file order and the
   "targets" list. *)
let read_results path =
  let ic = open_in path in
  let rows = ref [] and targets = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         Scanf.sscanf_opt line {| {"benchmark": %S, "unit": %S, "linux": %s@, "aster": %s@,|}
           (fun b _ _ a -> (b, float_of_string_opt a))
       with
       | Some r -> rows := r :: !rows
       | None ->
         Scanf.sscanf_opt line {| "targets": [%s@]|} (String.split_on_char ',')
         |> Option.iter (fun ts ->
                targets := List.filter_map (fun t -> Scanf.sscanf_opt t " %S" Fun.id) ts)
     done
   with End_of_file -> ());
  close_in ic;
  (List.rev !rows, !targets)

(* --- Paper reference values --- *)

let table7_paper =
  [
    ("lat_syscall null", (0.050, 0.066)); ("lat_ctx 18", (0.826, 0.829));
    ("lat_proc fork", (59.20, 57.46)); ("lat_proc exec", (204.8, 174.4));
    ("lat_proc shell", (319.3, 294.3)); ("lat_pagefault", (0.109, 0.100));
    ("lat_mmap 4m", (19.4, 16.80)); ("bw_mmap 256m", (15405., 13197.));
    ("lat_pipe", (1.826, 1.881)); ("bw_pipe", (11133., 14664.));
    ("lat_fifo", (1.825, 1.938)); ("lat_unix", (2.677, 2.493));
    ("bw_unix", (7875., 14183.)); ("lat_syscall open", (0.611, 0.740));
    ("lat_syscall read", (0.081, 0.088)); ("lat_syscall write", (0.065, 0.080));
    ("lat_syscall stat", (0.299, 0.400)); ("lat_syscall fstat", (0.263, 0.231));
    ("bw_file_rd 512m", (10238., 9198.)); ("lmdd(Ramfs->Ramfs)", (3219., 2973.));
    ("lmdd(Ramfs->Ext2)", (2490., 2612.)); ("lmdd(Ext2->Ramfs)", (3453., 2962.));
    ("lmdd(Ext2->Ext2)", (2017., 2626.)); ("lat_udp (loopback)", (3.801, 2.427));
    ("lat_tcp (loopback)", (5.326, 2.725)); ("bw_tcp 128 (loopback)", (280.0, 356.5));
    ("bw_tcp 64k (loopback)", (6216., 7647.)); ("lat_udp (virtio)", (15.03, 11.49));
    ("lat_tcp (virtio)", (16.75, 12.94)); ("bw_tcp 128 (virtio)", (328.7, 333.2));
    ("bw_tcp 64k (virtio)", (1151., 1116.));
  ]

let redis_paper =
  [
    ("PING_INLINE", (151022., 213342.)); ("PING_MBULK", (157979., 220976.));
    ("SET", (153391., 211648.)); ("GET", (155994., 218670.)); ("INCR", (152133., 219217.));
    ("LPUSH", (149887., 211692.)); ("RPUSH", (150505., 214605.)); ("LPOP", (148348., 209365.));
    ("RPOP", (150714., 210426.)); ("SADD", (156514., 217682.)); ("HSET", (152276., 209336.));
    ("SPOP", (157351., 217016.)); ("ZADD", (149386., 206069.)); ("ZPOPMIN", (158361., 219784.));
    ("LRANGE_100", (92696., 114472.)); ("LRANGE_300", (39268., 39732.));
    ("LRANGE_500", (27430., 27843.)); ("LRANGE_600", (23876., 23649.));
    ("MSET", (125747., 160041.));
  ]

let sqlite_paper =
  [
    (100, (0.27, 0.33, 0.32)); (110, (0.43, 0.49, 0.49)); (120, (0.88, 1.00, 1.00));
    (130, (0.40, 0.45, 0.44)); (140, (0.61, 0.71, 0.73)); (142, (1.17, 1.35, 1.34));
    (145, (0.49, 0.57, 0.56)); (150, (0.95, 1.16, 1.13)); (160, (1.74, 2.02, 2.03));
    (161, (1.75, 2.02, 2.02)); (170, (1.72, 2.06, 2.03)); (180, (2.14, 2.41, 2.42));
    (190, (2.09, 2.38, 2.38)); (200, (1.59, 2.21, 2.07)); (210, (0.04, 0.04, 0.04));
    (230, (1.81, 2.11, 2.08)); (240, (1.34, 1.58, 1.55)); (250, (0.21, 0.26, 0.24));
    (260, (0.02, 0.02, 0.02)); (270, (2.26, 2.63, 2.58)); (280, (2.19, 2.6, 2.58));
    (290, (3.85, 4.31, 4.22)); (300, (2.20, 2.51, 2.48)); (310, (3.60, 4.27, 4.25));
    (320, (7.14, 8.3, 8.35)); (400, (1.44, 1.57, 1.58)); (410, (2.25, 3.06, 3.05));
    (500, (1.66, 1.82, 1.85)); (510, (2.56, 3.4, 3.41)); (520, (0.57, 0.62, 0.64));
    (980, (3.33, 3.95, 3.97)); (990, (0.20, 0.22, 0.22));
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
  section "Table 7: LMbench micro-benchmarks (paper column: the paper's norm)";
  let rows =
    List.map
      (fun (r : Apps.Lmbench.row) ->
        let linux = r.run Sim.Profile.linux in
        let aster = r.run Sim.Profile.asterinas in
        let norm l a = if r.higher_better then a /. l else l /. a in
        row ~linux ~aster ~norm:(norm linux aster)
          ?paper:(Option.map (fun (l, a) -> norm l a) (List.assoc_opt r.name table7_paper))
          ~better:(if r.higher_better then Higher else Lower)
          ~unit_:r.unit_ ("table7/" ^ r.name))
      Apps.Lmbench.rows
  in
  let gm = Sim.Stats.geomean (List.rev (List.filter_map (fun r -> r.norm) rows)) in
  rows @ [ row ~norm:gm ~paper:1.08 ~better:Higher ~unit_:"ratio" "table7/geomean" ]
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

(* --- Fig. 5a/5b + Table 11: Nginx and Redis --- *)

(* One workload on linux, aster and aster-without-IOMMU. The row pairs
   linux with aster and observes the aster run; the no-IOMMU result is
   printed only. *)
let app_row ?paper ~unit_ name run =
  let lin = run Sim.Profile.linux in
  let ast = run Sim.Profile.asterinas in
  let obs = observe () in
  let noi = run Sim.Profile.asterinas_no_iommu in
  Printf.printf "%-24s aster without IOMMU %8.0f %s (%.3f of aster)\n%!" name noi unit_
    (noi /. ast);
  pair ?paper ~obs ~better:Higher ~unit_ name lin ast

let fig5a () =
  section "Fig. 5a: Nginx throughput (ab -c 32), requests/s";
  List.map
    (fun (file, requests, paper) ->
      app_row ~paper ~unit_:"req/s" ("fig5a/nginx_" ^ file) (fun profile ->
          Apps.Workload.nginx_rps ~profile ~file ~requests))
    [ ("f4k", sized ~quick:1500 6000, 1.19); ("f64k", sized ~quick:800 2500, 1.01) ]

let redis_table ops =
  List.map
    (fun op ->
      let requests =
        if String.starts_with ~prefix:"LRANGE" op then sized ~quick:400 1200
        else sized ~quick:1200 3500
      in
      app_row
        ?paper:(Option.map (fun (l, a) -> a /. l) (List.assoc_opt op redis_paper))
        ~unit_:"req/s" ("redis/" ^ op)
        (fun profile -> Apps.Workload.redis_rps ~profile ~op ~requests))
    ops

let table11 () =
  section "Table 11: complete redis-benchmark results (requests/s)";
  redis_table Apps.Mini_redis.command_names

let fig5b () =
  section "Fig. 5b: Redis representative commands (requests/s)";
  redis_table [ "GET"; "SET"; "INCR"; "LPUSH"; "SPOP"; "LRANGE_100" ]

(* --- Fig. 5c + Table 12: SQLite --- *)

let table12 () =
  section "Table 12 / Fig. 5c: SQLite speedtest1 (virtual seconds; workload scaled down)";
  let run profile = Apps.Workload.speedtest1 ~profile ~size:(sized ~quick:8 16) in
  let lin = run Sim.Profile.linux in
  Aster.Strace.reset ();
  let ast = run Sim.Profile.asterinas in
  let small = Aster.Strace.small_writes () in
  let obs = observe () in
  let noi = run Sim.Profile.asterinas_no_iommu in
  let secs l = List.map (fun (r : Apps.Speedtest1.result) -> r.seconds) l in
  Printf.printf "%4s %-44s %8s %8s %8s %6s | paper (s, ratio)\n" "num" "test" "linux" "aster"
    "noIOMMU" "ratio";
  List.iter
    (fun ((r : Apps.Speedtest1.result), (a, n)) ->
      Printf.printf "%4d %-44s %8.4f %8.4f %8.4f %6.2f %s\n" r.num r.name r.seconds a n
        (a /. (r.seconds +. 1e-12))
        (match List.assoc_opt r.num sqlite_paper with
        | Some (pl, pa, _) -> Printf.sprintf "| %5.2f %5.2f (%.2f)" pl pa (pa /. pl)
        | None -> ""))
    (List.combine lin (List.combine (secs ast) (secs noi)));
  let total l = List.fold_left ( +. ) 0. (secs l) in
  Printf.printf "aster without IOMMU: %.3f virtual s in total\n" (total noi);
  Printf.printf
    "strace diagnosis (aster run): %d small (<=8 byte) pwrite64/write calls; top syscalls:\n"
    small;
  List.iter (fun (n, c) -> Printf.printf "  %-12s %d\n" n c) (Aster.Strace.top 6);
  [
    pair ~paper:(62.44 /. 52.88) ~obs ~better:Lower ~unit_:"virtual s"
      "table12/speedtest1_total" (total lin) (total ast);
  ]

(* --- Fig. 6 --- *)

let fig6 () =
  section "Fig. 6: IOMMU overhead, pooled vs dynamic DMA mappings";
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
      let f = Apps.Workload.fio ~profile ~mbytes:(sized ~quick:4 8) () in
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
    (Apps.Workload.nginx_rps ~profile:Sim.Profile.linux ~file:"f64k" ~requests:n_gso)
    (Apps.Workload.nginx_rps ~profile:lin_no_gso ~file:"f64k" ~requests:n_gso);
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
    (Apps.Workload.nginx_rps ~profile:aster_bounce ~file:"f64k" ~requests:n)
    (Apps.Workload.nginx_rps ~profile:Sim.Profile.asterinas ~file:"f64k" ~requests:n)

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
  let run after_boot =
    let mbytes = sized ~quick:4 8 in
    let f = Apps.Workload.fio ~after_boot ~profile:Sim.Profile.asterinas ~mbytes () in
    Sim.Fault.disable ();
    f
  in
  let clean = run ignore in
  let faulty = run (fun () -> Sim.Fault.configure ~seed:42L Apps.Chaos.default_schedule) in
  let obs = observe () in
  Printf.printf "fio read MB/s: clean %.0f, fault schedule %.0f\n" clean.Apps.Fio.read_mb_s
    faulty.Apps.Fio.read_mb_s;
  Printf.printf "fault plane: %s\n"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) (Sim.Stats.fault_report ())));
  print_endline
    "(retries and backoff trade throughput for liveness: no hangs, no corruption)";
  [
    pair ~obs ~better:Higher ~unit_:"MB/s (clean vs faulted)" "chaos/fio_write"
      clean.Apps.Fio.write_mb_s faulty.Apps.Fio.write_mb_s;
  ]

(* --- Pipeline ablations: fio_seq, fio_fsync, bw_tcp_batch, offloads ---

   Each stats run is one workload run plus the counters that attribute
   its result. Stats reset at boot, so the counters cover exactly that
   run. The recording rows are shared with the smoke gates. *)

type fio_stats = {
  fio : Apps.Fio.result;
  blk_doorbells : float;  (* per MB *)
  blk_irqs : float;  (* per MB *)
  merged : int;
  ra_hits : int;
  fio_end : float;  (* virtual end cycle *)
}

let fio_stats_run ?after_boot ~mbytes profile =
  let fio = Apps.Workload.fio ?after_boot ~profile ~mbytes () in
  let per_mb n = float_of_int (Sim.Stats.get n) /. float_of_int mbytes in
  {
    fio;
    blk_doorbells = per_mb "blk.doorbell";
    blk_irqs = per_mb "blk.irq";
    merged = Sim.Stats.get "blk.merge";
    ra_hits = Sim.Stats.get "blk.readahead.hit";
    fio_end = Int64.to_float (Sim.Clock.now ());
  }

let blk_neither p = Sim.Profile.with_blk_readahead false (Sim.Profile.with_blk_batching false p)

let fio_seq_rows prefix ~full ~none =
  let n = Printf.sprintf "%s/%s" prefix in
  [
    pair ~better:Higher ~unit_:"MB/s" (n "fio_seq_read_cold") none.fio.read_cold_mb_s
      full.fio.read_cold_mb_s;
    pair ~better:Higher ~unit_:"MB/s" (n "fio_seq_write") none.fio.write_mb_s
      full.fio.write_mb_s;
    pair ~better:Lower ~unit_:"per MB" (n "fio_doorbells_per_mb") none.blk_doorbells
      full.blk_doorbells;
    pair ~better:Lower ~unit_:"per MB" (n "fio_irqs_per_mb") none.blk_irqs full.blk_irqs;
  ]

let fio_seq () =
  section "fio sequential I/O: batching + readahead ablation (ext2, cold cache)";
  let mbytes = sized ~quick:4 8 in
  let base = Sim.Profile.asterinas in
  let full = fio_stats_run ~mbytes base in
  let only = fio_stats_run ~mbytes (Sim.Profile.with_blk_readahead false base) in
  let none = fio_stats_run ~mbytes (blk_neither base) in
  Printf.printf "%-20s %11s %11s %11s %10s %8s %7s %7s\n" "variant" "write MB/s" "cold MB/s"
    "warm MB/s" "doorbl/MB" "irq/MB" "merged" "ra hit";
  List.iter
    (fun (name, s) ->
      Printf.printf "%-20s %11.0f %11.0f %11.0f %10.1f %8.1f %7d %7d\n" name
        s.fio.write_mb_s s.fio.read_cold_mb_s s.fio.read_mb_s s.blk_doorbells s.blk_irqs
        s.merged s.ra_hits)
    [ ("batching+readahead", full); ("batching only", only); ("neither", none) ];
  (* The "linux" column holds the ablated (off) variant. *)
  fio_seq_rows "table12" ~full ~none

(* The fsync-heavy variant prices the crash-consistency plane: every
   4 KiB write is followed by fsync, so with the journal on each one is
   a full transaction commit (data sync + descriptor/content barrier +
   FUA commit record). *)
type fsync_stats = { fsync_mb_s : float; fsyncs : int; commits : int; flushes : int; fua : int }

let fio_fsync_run ~mbytes profile =
  let fsync_mb_s, fsyncs = Apps.Workload.fio_fsync ~profile ~mbytes in
  {
    fsync_mb_s;
    fsyncs;
    commits = Sim.Stats.get "jbd.commit";
    flushes = Sim.Stats.get "blk.flush";
    fua = Sim.Stats.get "blk.fua";
  }

let fio_fsync () =
  section "fio fsync-per-write: ext2 journal commit cost";
  let mbytes = sized ~quick:1 2 in
  let on = fio_fsync_run ~mbytes Sim.Profile.asterinas in
  let off = fio_fsync_run ~mbytes (Sim.Profile.with_ext2_journal false Sim.Profile.asterinas) in
  Printf.printf "%-12s %9s %8s %9s %9s %6s\n" "journal" "MB/s" "fsyncs" "commits" "flushes" "FUA";
  List.iter
    (fun (name, s) ->
      Printf.printf "%-12s %9.1f %8d %9d %9d %6d\n" name s.fsync_mb_s s.fsyncs s.commits
        s.flushes s.fua)
    [ ("on", on); ("off", off) ];
  [ pair ~better:Higher ~unit_:"MB/s" "crash/fio_fsync_write" off.fsync_mb_s on.fsync_mb_s ]

(* One bw_tcp run (4 MiB guest -> host) plus the net.* counters that
   attribute the batching win. *)
type net_stats = {
  bw : float;
  net_doorbells : float;  (* per MB *)
  net_irqs : float;  (* per MB *)
  bursts : int;
  coalesced : int;
  bw_end : float;  (* virtual end cycle *)
}

let bw_tcp_stats_run profile =
  let bw = (Apps.Lmbench.find "bw_tcp 64k (virtio)").run profile in
  let per_mb n = float_of_int (Sim.Stats.get n) /. 4.0 in
  {
    bw;
    net_doorbells = per_mb "net.doorbell";
    net_irqs = per_mb "net.irq";
    bursts = Sim.Stats.get "net.burst";
    coalesced = Sim.Stats.get "net.coalesced_rx";
    bw_end = Int64.to_float (Sim.Clock.now ());
  }

(* Offload-free on purpose: the batching ablation isolates the TX
   batching and IRQ coalescing mechanics against the
   software-segmentation baseline (descriptor == wire frame), keeping
   the committed table12 rows comparable across the offload work. The
   offload wins have their own matrix (the [offloads] target). *)
let swseg = Sim.Profile.with_all_offloads false Sim.Profile.asterinas

let net_neither p =
  Sim.Profile.with_net_irq_coalesce false (Sim.Profile.with_net_tx_batching false p)

let bw_tcp_batch_rows ~full ~none =
  [
    pair ~better:Higher ~unit_:"MB/s" "table12/bw_tcp_batch" none.bw full.bw;
    pair ~better:Lower ~unit_:"per MB" "table12/net_doorbells_per_mb" none.net_doorbells
      full.net_doorbells;
    pair ~better:Lower ~unit_:"per MB" "table12/net_irqs_per_mb" none.net_irqs full.net_irqs;
  ]

(* Batching must not tax the single-segment path: a ping-pong burst is
   one segment, so plug/flush adds no doorbells and no latency. IRQ
   coalescing stays on in both runs (the deployed config), isolating
   the plug/flush cost alone. *)
let lat_tcp_batch_row base =
  let lat = Apps.Lmbench.find "lat_tcp (virtio)" in
  let on = lat.run base in
  let off = lat.run (Sim.Profile.with_net_tx_batching false base) in
  pair ~better:Lower ~unit_:"us" "table12/lat_tcp_batch" off on

let bw_tcp_batch () =
  section "bw_tcp: TX batching + IRQ coalescing ablation (virtio, 64k writes)";
  let full = bw_tcp_stats_run swseg in
  let only = bw_tcp_stats_run (Sim.Profile.with_net_irq_coalesce false swseg) in
  let none = bw_tcp_stats_run (net_neither swseg) in
  Printf.printf "%-20s %11s %10s %8s %8s %8s\n" "variant" "bw MB/s" "doorbl/MB" "irq/MB"
    "bursts" "coal rx";
  List.iter
    (fun (name, s) ->
      Printf.printf "%-20s %11.0f %10.1f %8.1f %8d %8d\n" name s.bw s.net_doorbells s.net_irqs
        s.bursts s.coalesced)
    [ ("batching+coalesce", full); ("batching only", only); ("neither", none) ];
  let lat = lat_tcp_batch_row swseg in
  (* Without coalescing, per-completion interrupts trip the kernel's
     IRQ-storm throttle (mask + 300 us recovery polls), which dominates
     the uncoalesced ping-pong. *)
  Printf.printf "lat_tcp uncoalesced: %.2f us (IRQ-storm throttled)\n"
    ((Apps.Lmbench.find "lat_tcp (virtio)").run (net_neither swseg));
  bw_tcp_batch_rows ~full ~none @ [ lat ]

(* Host -> guest bw_tcp_rx: MB/s, stack charge_rx invocations per MB,
   and RX segments GRO merged. *)
let rx_stats_run profile =
  let mb_s = Apps.Lmbench.bw_tcp_rx_virtio ~msg:65536 profile in
  (mb_s, float_of_int (Sim.Stats.get "tcp.rx_calls") /. 4.0, Sim.Stats.get "net.gro_merged")

(* One row group per knob, each measured three ways: guest-TX bw_tcp
   (TSO + csum-tx + the copy ledger), host->guest bw_tcp_rx (GRO +
   csum-rx), and nginx f64k (zero-copy sendfile end to end). Recipe
   documented in EXPERIMENTS.md. *)
let offload_matrix () =
  section "Offload ablation: GSO/GRO/checksum/zero-copy matrix";
  let base = Sim.Profile.asterinas in
  let bw_tx_row = Apps.Lmbench.find "bw_tcp 64k (virtio)" in
  List.concat_map
    (fun (name, p) ->
      let tx = bw_tx_row.Apps.Lmbench.run p in
      let copied = float_of_int (Sim.Stats.get "net.bytes_copied") /. 4.0 in
      let rx, rx_calls, merged = rx_stats_run p in
      let rps =
        Apps.Workload.nginx_rps ~profile:p ~file:"f64k" ~requests:(sized ~quick:300 1000)
      in
      Printf.printf "%-12s gro_merged %d\n" name merged;
      let n = Printf.sprintf "offloads/%s/%s" name in
      [
        row ~aster:tx ~better:Higher ~unit_:"MB/s" (n "bw_tcp_tx");
        row ~aster:copied ~better:Lower ~unit_:"bytes per MB" (n "tx_bytes_copied_per_mb");
        row ~aster:rx ~better:Higher ~unit_:"MB/s" (n "bw_tcp_rx");
        row ~aster:rx_calls ~better:Lower ~unit_:"per MB" (n "rx_charges_per_mb");
        row ~aster:rps ~better:Higher ~unit_:"req/s" (n "nginx_f64k");
      ])
    [
      ("all-on", base);
      ("no-gso", Sim.Profile.with_tcp_gso false base);
      ("no-gro", Sim.Profile.with_net_gro false base);
      ("no-csum", Sim.Profile.with_csum_offload false base);
      ("no-zerocopy", Sim.Profile.with_sendfile_zero_copy false base);
      ("all-off", Sim.Profile.with_all_offloads false base);
    ]

(* --- c10k: epoll readiness at connection scale --- *)

let c10k_rows conns =
  let r = Apps.Workload.c10k ~conns ~rounds:20 ~batch:32 ~churn:10 in
  let n = Printf.sprintf "c10k/%d/%s" conns in
  ( r,
    [
      row ~aster:r.Apps.C10k.p99_us ~better:Lower ~unit_:"us" (n "p99_wakeup");
      row ~aster:r.Apps.C10k.scan_per_wait ~better:Lower ~unit_:"entries/wait"
        (n "scan_per_wait");
    ] )

(* Mostly-idle pool with churn: the echo tail and the per-wait sweep
   must not grow with the idle crowd (epoll is O(ready)). The churn
   knob prices registration/teardown on the same path; knob table in
   EXPERIMENTS.md. *)
let c10k () =
  section "c10k: epoll echo under mostly-idle connections + churn";
  List.concat_map
    (fun conns ->
      let r, rows = c10k_rows conns in
      Printf.printf "%6d conns: %d pings, %d churned, p50 %.1f us, max %.1f us, %d waits\n%!"
        conns r.Apps.C10k.pings r.Apps.C10k.churned r.Apps.C10k.p50_us r.Apps.C10k.max_us
        r.Apps.C10k.wait_calls;
      rows)
    (sized ~quick:[ 500; 2000 ] [ 2500; 10000; 25000 ])

(* --- Smoke: fast CI gate over the pipelines and zero-cost planes ---

   Every gate is a predicate over the rows below. @bench-smoke also
   diffs the written rows against bench/smoke_expected.json, so a moved
   number fails @check even where no gate trips. Zero-cost rows put the
   reference run in the linux column and the variant in aster. *)

let smoke () =
  section "bench smoke: pipeline and zero-cost gates";
  let base = Sim.Profile.asterinas in
  let count ?(unit_ = "count") name v =
    row ~aster:(float_of_int v) ~better:Higher ~unit_ ("smoke/" ^ name)
  in
  (* One fio run, reference vs variant: MB/s and virtual end cycle. *)
  let fio_vs name r v =
    let mb = pair ~better:Higher ~unit_:"MB/s" in
    [
      mb (name ^ "/fio_write") r.fio.write_mb_s v.fio.write_mb_s;
      mb (name ^ "/fio_read_cold") r.fio.read_cold_mb_s v.fio.read_cold_mb_s;
      mb (name ^ "/fio_read_warm") r.fio.read_mb_s v.fio.read_mb_s;
      pair ~better:Lower ~unit_:"cycles" (name ^ "/end_cycle") r.fio_end v.fio_end;
    ]
  in
  (* Batched block pipeline. *)
  let mbytes = 2 in
  let full = fio_stats_run ~mbytes base in
  let none = fio_stats_run ~mbytes (blk_neither base) in
  (* Batched network pipeline, offload-free like bw_tcp_batch. *)
  let nfull = bw_tcp_stats_run swseg in
  let nnone = bw_tcp_stats_run (net_neither swseg) in
  let lat = lat_tcp_batch_row swseg in
  (* Segmentation offload + zero-copy: default pipeline vs software
     baseline. *)
  let rx_on, calls_on, merged_on = rx_stats_run base in
  let rx_off, calls_off, _ = rx_stats_run swseg in
  let nginx_copied profile =
    let requests = 400 in
    let rps = Apps.Workload.nginx_rps ~profile ~file:"f64k" ~requests in
    let mb = float_of_int (requests * 65536) /. 1048576. in
    (rps, float_of_int (Sim.Stats.get "net.bytes_copied") /. mb)
  in
  let ast_rps, zc_copied = nginx_copied base in
  let _, bounce_copied = nginx_copied (Sim.Profile.with_sendfile_zero_copy false base) in
  let lin_rps, _ = nginx_copied Sim.Profile.linux in
  (* Crash-consistency plane: journaling is a write-side mechanism and
     must stay off the read path ([full] runs with the journal on). *)
  let nojournal = fio_stats_run ~mbytes (Sim.Profile.with_ext2_journal false base) in
  let fsync = fio_fsync_run ~mbytes:1 base in
  (* Probe plane: the VM charges no virtual cycles, so the always-on
     watchdogs, every probe detached, and extra programs attached must
     all give the same run. *)
  let probe_run ~detach extra =
    Aster.Kernel.boot_probes := extra;
    fio_stats_run ~mbytes base ~after_boot:(fun () ->
        Aster.Kernel.boot_probes := [];
        if detach then Kprobe.Registry.reset ())
  in
  let watchdogs = probe_run ~detach:false [] in
  let detached = probe_run ~detach:true [] in
  let attached =
    probe_run ~detach:false
      (List.filter_map Kprobe.Templates.by_name [ "blk.lat"; "syscall.count"; "read_lat_by_fd" ])
  in
  let blk_lat_bios =
    match Kprobe.Registry.find "blk.lat" with
    | None -> 0
    | Some l ->
      Hashtbl.find_opt l.Kprobe.Registry.store.Kprobe.Maps.hists "lat_us"
      |> Option.fold ~none:0 ~some:Sim.Hist.count
  in
  let bw_default = bw_tcp_stats_run base in
  Aster.Kernel.boot_probes := List.filter_map Kprobe.Templates.by_name [ "net.bytes" ];
  let bw_probed = bw_tcp_stats_run base in
  Aster.Kernel.boot_probes := [];
  (* Span plane, same promise: the harness runs span-on, so [full] and
     [bw_default] are the span-on baselines. *)
  let with_span on f =
    if on then begin Sim.Span.enable (); Sim.Span.set_auto true end
    else begin Sim.Span.disable (); Sim.Span.set_auto false end;
    f ()
  in
  let fio_off = with_span false (fun () -> fio_stats_run ~mbytes base) in
  let fio_on = with_span true (fun () -> fio_stats_run ~mbytes base) in
  let fio_spans = Sim.Span.finished_count () in
  let fio_residual = Sim.Span.max_residual_frac () in
  let bw_off = with_span false (fun () -> bw_tcp_stats_run base) in
  let bw_on = with_span true (fun () -> bw_tcp_stats_run base) in
  (* Epoll is O(ready), not O(fds): quadrupling the idle pool must leave
     the per-wait sweep and the echo tail flat. *)
  let _, small = c10k_rows 2500 in
  let big, big_rows = c10k_rows 10000 in
  let rows =
    fio_seq_rows "smoke" ~full ~none
    @ [
        count ~unit_:"bios" "fio_merged_bios" full.merged;
        count ~unit_:"hits" "fio_readahead_hits" full.ra_hits;
      ]
    @ bw_tcp_batch_rows ~full:nfull ~none:nnone
    @ [
        count "net_tx_bursts" nfull.bursts;
        lat;
        pair ~better:Higher ~unit_:"MB/s" "smoke/bw_tcp_rx" rx_off rx_on;
        pair ~better:Lower ~unit_:"per MB" "smoke/rx_charges_per_mb" calls_off calls_on;
        count ~unit_:"segments" "gro_merged" merged_on;
        pair ~better:Higher ~unit_:"req/s" "smoke/nginx_f64k" lin_rps ast_rps;
        pair ~better:Lower ~unit_:"bytes per MB" "smoke/sendfile_bytes_copied_per_mb"
          bounce_copied zc_copied;
        pair ~better:Higher ~unit_:"MB/s" "smoke/journal_fio_seq_read_cold"
          nojournal.fio.read_cold_mb_s full.fio.read_cold_mb_s;
        row ~aster:fsync.fsync_mb_s ~better:Higher ~unit_:"MB/s" "smoke/fio_fsync_write";
        count "fio_fsyncs" fsync.fsyncs;
        count "jbd_commits" fsync.commits;
        count "fua_records" fsync.fua;
      ]
    @ fio_vs "smoke/probe_detached" watchdogs detached
    @ fio_vs "smoke/probe_attached" watchdogs attached
    @ [
        count ~unit_:"bios" "probe_blk_lat_bios" blk_lat_bios;
        pair ~better:Higher ~unit_:"MB/s" "smoke/probe_net_bytes/bw_tcp" bw_default.bw
          bw_probed.bw;
      ]
    @ fio_vs "smoke/span_off_vs_baseline" full fio_off
    @ fio_vs "smoke/span_on_vs_off" fio_off fio_on
    @ [
        pair ~better:Higher ~unit_:"MB/s" "smoke/span_off_vs_baseline/bw_tcp" bw_default.bw
          bw_off.bw;
        pair ~better:Lower ~unit_:"cycles" "smoke/span_on_vs_off/bw_tcp_end_cycle" bw_off.bw_end
          bw_on.bw_end;
        count "span_fio_spans" fio_spans;
        row ~aster:fio_residual ~better:Lower ~unit_:"ratio" "smoke/span_worst_residual";
      ]
    @ small @ big_rows
    @ [
        count "c10k_conns" big.Apps.C10k.conns;
        count "c10k_pings" big.Apps.C10k.pings;
        count "c10k_churned" big.Apps.C10k.churned;
      ]
  in
  (* The offloads-off bw_tcp pipeline must still reproduce the committed
     table12 rows exactly (at the JSON's printed precision). *)
  let committed =
    match read_results "BENCH_results.json" with rs, _ -> rs | exception Sys_error _ -> []
  in
  let reproduces a n =
    List.assoc_opt n committed = Some (Some (float_of_string (json_float (a n))))
  in
  (* Predicates over one row: aster vs k * linux, positive, identical. *)
  let ge k n a l = a n >= k *. l n and le k n a l = a n <= k *. l n in
  let lt n a l = a n < l n and pos n a _ = a n > 0. and same n a l = a n = l n in
  let fio_equal p a l =
    List.for_all (fun m -> same (p ^ m) a l) [ "/fio_write"; "/fio_read_cold"; "/fio_read_warm" ]
  in
  let same_end p = same (p ^ "/end_cycle") in
  let gates : gate list =
    [
      ( "batching+readahead speeds cold sequential read by >=1.2x",
        ge 1.2 "smoke/fio_seq_read_cold" );
      ("batching merges bios", pos "smoke/fio_merged_bios");
      ("readahead window produces demand hits", pos "smoke/fio_readahead_hits");
      ("batching cuts doorbells per MB", lt "smoke/fio_doorbells_per_mb");
      ("batching cuts completion IRQs per MB", lt "smoke/fio_irqs_per_mb");
      ("TX batching speeds bw_tcp by >=1.2x", ge 1.2 "table12/bw_tcp_batch");
      ("TX bursts were submitted", pos "smoke/net_tx_bursts");
      ( "batching+coalescing cuts net doorbells+IRQs per MB >=5x",
        fun a l ->
          let both f = f "table12/net_doorbells_per_mb" +. f "table12/net_irqs_per_mb" in
          5. *. both a <= both l );
      ("TX batching does not tax single-segment latency (>5%)", le 1.05 "table12/lat_tcp_batch");
      ("GRO merges RX segments", pos "smoke/gro_merged");
      ("GRO cuts stack charge_rx invocations per MB >=5x", le 0.2 "smoke/rx_charges_per_mb");
      ("GRO does not slow the RX stream", ge 0.95 "smoke/bw_tcp_rx");
      ("zero-copy+GSO lift nginx_f64k to parity (norm >= 1.0)", ge 1. "smoke/nginx_f64k");
      ("zero-copy sendfile cuts bytes-copied/MB >=2x", le 0.5 "smoke/sendfile_bytes_copied_per_mb");
      ( "all-offloads-off reproduces the committed bw_tcp pipeline byte-for-byte",
        fun a _ ->
          List.for_all (reproduces a)
            [ "table12/bw_tcp_batch"; "table12/net_doorbells_per_mb"; "table12/net_irqs_per_mb" ]
      );
      ( "journaling costs <=15% on the fio_seq cold-read path",
        ge 0.85 "smoke/journal_fio_seq_read_cold" );
      ( "fsync-heavy run commits once per fsync",
        fun a _ -> a "smoke/fio_fsyncs" > 0. && a "smoke/jbd_commits" >= a "smoke/fio_fsyncs" );
      ("commit records are written FUA", pos "smoke/fua_records");
      ( "detached probes leave fio_seq byte-identical (virtual end time)",
        same_end "smoke/probe_detached" );
      ("detached probes leave fio_seq byte-identical (MB/s)", fio_equal "smoke/probe_detached");
      ("attached probes cost zero on fio_seq (virtual end time)", same_end "smoke/probe_attached");
      ("attached probes cost zero on fio_seq (MB/s)", fio_equal "smoke/probe_attached");
      ("attached blk.lat probe observed the run", pos "smoke/probe_blk_lat_bios");
      ("attached net.bytes probe costs zero on bw_tcp", same "smoke/probe_net_bytes/bw_tcp");
      ( "span-off fio_seq byte-identical to span-on baseline (MB/s)",
        fio_equal "smoke/span_off_vs_baseline" );
      ( "span-on adds zero virtual cycles to fio_seq (same end cycle)",
        same_end "smoke/span_on_vs_off" );
      ("span-on fio_seq byte-identical (MB/s)", fio_equal "smoke/span_on_vs_off");
      ( "span-off bw_tcp byte-identical to span-on baseline (MB/s)",
        same "smoke/span_off_vs_baseline/bw_tcp" );
      ( "span-on adds zero virtual cycles to bw_tcp (same end cycle)",
        same "smoke/span_on_vs_off/bw_tcp_end_cycle" );
      ("span plane observed the fio run", pos "smoke/span_fio_spans");
      ( "span critical path attributes >=95% of tail wall time",
        fun a _ -> a "smoke/span_worst_residual" < 0.05 );
      ( "c10k holds >=10k mostly-idle connections through churn",
        fun a _ ->
          a "smoke/c10k_conns" >= 10000. && a "smoke/c10k_pings" > 0. && a "smoke/c10k_churned" > 0.
      );
      ( "epoll_wait sweep is O(ready): scan/wait flat as idle pool grows 4x",
        fun a _ -> a "c10k/10000/scan_per_wait" <= 2. *. a "c10k/2500/scan_per_wait" );
      ( "p99 wakeup latency independent of idle-connection count",
        fun a _ -> a "c10k/10000/p99_wakeup" <= 1.5 *. a "c10k/2500/p99_wakeup" );
    ]
  in
  (rows, gates)

(* --- Regression gate: bench --compare BASELINE.json ---

   Exits non-zero when any row's aster value is more than 10% worse
   than the baseline's in the row's [better] direction, when no row
   matched the baseline at all, or (when the run's targets equal the
   baseline's) when a baseline row is missing from the run. *)

let compare_with_baseline path ~targets rows =
  let base, base_targets = read_results path in
  let checked = ref 0 and regressions = ref [] in
  List.iter
    (fun r ->
      match (r.aster, List.assoc_opt r.name base) with
      | Some v, Some (Some bv) when Float.abs bv > 1e-9 ->
        incr checked;
        let delta = match r.better with Lower -> (v -. bv) /. bv | Higher -> (bv -. v) /. bv in
        if delta > 0.10 then regressions := (r, bv, v, delta) :: !regressions
      | _ -> ())
    rows;
  let missing =
    if targets <> base_targets then []
    else
      List.filter_map
        (fun (b, _) -> if List.exists (fun r -> r.name = b) rows then None else Some b)
        base
  in
  Printf.printf "\ncompare vs %s: %d metrics checked, %d regressed >10%%, %d missing\n" path
    !checked
    (List.length !regressions)
    (List.length missing);
  List.iter
    (fun (r, bv, v, d) ->
      Printf.printf "  REGRESSION %-40s %s: baseline %.4g -> %.4g (%.0f%% worse)\n" r.name
        r.unit_ bv v (100. *. d))
    (List.rev !regressions);
  List.iter (Printf.printf "  MISSING    %s\n") missing;
  if !checked = 0 then print_endline "  FAIL: no row of this run matched the baseline";
  if !checked = 0 || !regressions <> [] || missing <> [] then exit 1

(* A target returns its rows and the gates over them; report-only
   targets print and return neither. *)
let report f () =
  f ();
  ([], [])

let rows f () = (f (), [])

let all_targets =
  [
    ("table1", report table1);
    ("table3", report table3);
    ("table7", rows table7);
    ("table8", report table8);
    ("table9", report table9);
    ("table10", report table10);
    ("table11", rows table11);
    ("table12", rows table12);
    ("fig5a", rows fig5a);
    ("fig5b", rows fig5b);
    ("fig5c", rows table12);
    ("fig6", report fig6);
    ("fig7", report fig7);
    ("fig9", report fig9);
    ("ablations", report ablations);
    ("bechamel", report bechamel_table8);
    ("chaos", rows chaos_bench);
    ("fio_seq", rows fio_seq);
    ("fio_fsync", rows fio_fsync);
    ("bw_tcp_batch", rows bw_tcp_batch);
    ("offloads", rows offload_matrix);
    ("c10k", rows c10k);
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
  (match List.filter (fun t -> not (List.mem_assoc t all_targets)) args with
  | [] -> ()
  | unknown ->
    List.iter (Printf.eprintf "unknown target: %s\n") unknown;
    Printf.eprintf "targets: %s\n" (String.concat " " (List.map fst all_targets));
    exit 2);
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
  let rows =
    List.concat_map
      (fun t ->
        let rows, gates = (List.assoc t all_targets) () in
        print_rows rows;
        check_gates rows gates;
        rows)
      targets
  in
  (* The committed BENCH_results.json only ever holds the full default
     run: a subset or quick invocation writes JSON only where --json
     says to, instead of clobbering the trajectory file. *)
  (match (!json_path, args, !quick) with
  | Some path, _, _ -> write_json ~path ~targets rows
  | None, [], false -> write_json ~path:"BENCH_results.json" ~targets rows
  | None, _, _ -> ());
  (* Regression gate after the JSON is safely on disk. *)
  Option.iter (fun path -> compare_with_baseline path ~targets rows) !baseline;
  if !gates_failed then exit 1
