(* The benchmark executable: runs one workload, several times, in this
   process, and prints every metric by name with its unit and sample
   count, then one JSON result line.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   [--trace-out FILE] --set key=value ...

   Each repetition generates its inputs from the seed, boots a fresh
   machine, preloads it (all of that is set-up), then runs the measured
   phase. Repetitions continue until S host seconds have passed; every
   one must reproduce the first one's virtual results exactly. With
   --trace 1 the repetitions alternate untraced and traced, the traced
   ones must match the untraced virtual results exactly (tracing costs
   zero virtual cycles), and the per-layer metrics are printed instead
   of the end-to-end ones. *)

open Common

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let json_num v = if Float.is_finite v then Printf.sprintf "%.10g" v else "0"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let trace_out = ref "" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; parse rest
    | "--trace" :: n :: rest -> trace := int_of_string n; parse rest
    | "--trace-out" :: f :: rest -> trace_out := f; parse rest
    | "--set" :: kv :: rest ->
      (match String.index_opt kv '=' with
      | Some i ->
        Hashtbl.replace params (String.sub kv 0 i) (String.sub kv (i + 1) (String.length kv - i - 1))
      | None -> die "--set expects key=value, got %s" kv);
      parse rest
    | [] -> ()
    | a :: _ -> die "unknown argument %s" a
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> die "bad numeric argument");
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then
    die "usage: --workload W --seed N --seconds S --trace 0|1 --set key=value ...";
  let rep =
    match !workload with
    | "http-conn" -> Http_conn.rep
    | "kv-persist" -> Kv_persist.rep
    | "db-txn" -> Db_txn.rep
    | w -> die "unknown workload %s" w
  in
  (* A p99 needs ten samples beyond it. *)
  List.iter
    (fun k ->
      if Hashtbl.mem params k && pi k < 1000 then die "%s must be >= 1000 for a p99" k)
    [ "n_light"; "n_search"; "n_heavy" ];
  Hostm.start ();
  let t_start = host_s () in
  let run ~traced =
    (* Each repetition starts from a collected heap, so the previous
       machine's garbage is not swept inside this one's measurement. *)
    Gc.full_major ();
    Layers.tracing := traced;
    let ref_s = Calib.sample () in
    let r = rep ~seed:!seed in
    Layers.tracing := false;
    (r, ref_s)
  in
  let plain = ref [] and traced = ref [] in
  (* Repeat while another repetition still fits in the time budget. *)
  let fits () =
    let elapsed = host_s () -. t_start in
    elapsed +. (elapsed /. fi (List.length !plain)) <= !seconds
  in
  (* Peak RSS of one repetition, as a process that runs the workload
     once sees it; later repetitions overlap the next machine's boot
     with the previous one's garbage. *)
  let rss_mb = ref nan in
  (* Set-up time of each untraced repetition, scaled like the steps
     (see [steady_ops]) by the reference run before it and the one
     after its set-up. *)
  let setups = ref [] in
  while !plain = [] || fits () do
    let r, ref_s = run ~traced:false in
    plain := r :: !plain;
    let ref_after = if Array.length r.Report.laps > 0 then snd r.Report.laps.(0) else ref_s in
    setups := Calib.scale r.Report.setup_s ~ref_s:((ref_s +. ref_after) /. 2.) :: !setups;
    if Float.is_nan !rss_mb then rss_mb := peak_rss_mb ();
    if !trace = 1 then traced := fst (run ~traced:true) :: !traced
  done;
  let plain = List.rev !plain and traced = List.rev !traced and setups = List.rev !setups in
  let first = List.hd plain in
  let all = plain @ traced in
  let same = List.for_all (fun (r : Report.rep) -> r.Report.vkey = first.Report.vkey) in
  let deterministic = same plain and zero_cost = same traced in
  let attempted = List.fold_left (fun a (r : Report.rep) -> a + r.Report.attempted) 0 all in
  let failed = List.fold_left (fun a (r : Report.rep) -> a + r.Report.failed) 0 all in
  let correct = !mismatches = 0 && failed = 0 && deterministic && zero_cost in
  let host_ops (r : Report.rep) = ratio (fi r.Report.ops) r.Report.host.Hostm.d_wall in
  (* Every repetition does the same work step for step (their virtual
     results are identical). A step's host time is first scaled to the
     nominal host by the reference timed around it (Calib), then taken
     as its median over the repetitions: neither a slow phase of the
     host nor a burst of noise in one step of one repetition moves the
     rate. *)
  let steady_ops reps =
    match reps with
    | [] -> nan
    | (r0 : Report.rep) :: _ ->
      let n = Array.length r0.Report.laps in
      if List.exists (fun (r : Report.rep) -> Array.length r.Report.laps <> n) reps then nan
      else
        let step j =
          median
            (List.map
               (fun (r : Report.rep) ->
                 let d, ref_s = r.Report.laps.(j) in
                 Calib.scale d ~ref_s)
               reps)
        in
        ratio (fi r0.Report.ops) (List.fold_left ( +. ) 0. (List.init n step))
  in
  let ref_mean (r : Report.rep) =
    Array.fold_left (fun a (_, c) -> a +. c) 0. r.Report.laps /. fi (Array.length r.Report.laps)
  in
  let med f l = median (List.map f l) in
  (* --- printed report --- *)
  Printf.printf "workload %s seed %d: %d untraced + %d traced repetitions in %.1f host s\n"
    !workload !seed (List.length plain) (List.length traced) (host_s () -. t_start);
  List.iter (fun l -> print_endline ("  " ^ l)) first.Report.steps;
  let per_rep label f l =
    Printf.printf "  %s per repetition: %s\n" label
      (String.concat " " (List.map (fun r -> Printf.sprintf "%.4g" (f r)) l))
  in
  per_rep "raw host_ops_per_s" host_ops plain;
  per_rep "raw setup_s" (fun (r : Report.rep) -> r.Report.setup_s) plain;
  per_rep "reference_ms" (fun r -> 1000. *. ref_mean r) plain;
  if traced <> [] then per_rep "traced raw host_ops_per_s" host_ops traced;
  if not deterministic then print_endline "FAIL: repetitions disagree on the virtual results";
  if not zero_cost then print_endline "FAIL: the traced run changed the virtual results";
  List.iter (fun m -> print_endline ("FAIL: " ^ m)) (List.rev !mismatch_log);
  let n_plain = List.length plain in
  let metrics =
    if !trace = 0 then
      [ ("host_ops_per_s", steady_ops plain, "ops/s", n_plain);
        ("host_peak_rss_mb", !rss_mb, "MiB", 1);
        ("setup_s", median setups, "s", n_plain) ]
      @ List.map
          (fun (m : Report.vmetric) -> (m.Report.name, m.Report.value, m.Report.unit_, m.Report.samples))
          first.Report.v
    else begin
      let layer name = List.assoc name (List.hd traced).Report.layers in
      let host_ns nr = med (fun (r : Report.rep) -> List.assoc ("host.syscall_ns." ^ nr) r.Report.layers) traced in
      let d f = med (fun (r : Report.rep) -> f r.Report.host) plain in
      let per_op f = med (fun (r : Report.rep) -> ratio (f r.Report.host) (fi r.Report.ops)) plain in
      let value name =
        match name with
        | "host.alloc_words_per_op" -> per_op (fun h -> h.Hostm.d_alloc)
        | "host.major_words_per_op" -> per_op (fun h -> h.Hostm.d_major_w)
        | "host.major_gcs" -> d (fun h -> fi h.Hostm.d_majors)
        | "host.gc_time_frac" -> d (fun h -> ratio h.Hostm.d_gc_s h.Hostm.d_wall)
        | "host.s_per_virtual_s" -> ratio (ratio (fi first.Report.ops) (steady_ops plain)) first.Report.virtual_s
        | "bench.gen_lag_us_max" -> first.Report.gen_lag_us_max
        | "bench.backlog_end" -> fi first.Report.backlog_end
        | "bench.tracing_overhead" -> ratio (steady_ops traced) (steady_ops plain)
        | "bench.fail_frac" -> ratio (fi failed) (fi attempted)
        | _ ->
          if String.starts_with ~prefix:"host.syscall_ns." name then
            host_ns (String.sub name 16 (String.length name - 16))
          else layer name
      in
      List.map (fun (name, unit_) -> (name, value name, unit_, 1)) Layers.metric_units
    end
  in
  Printf.printf "  %-44s %16s %-10s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun (name, v, u, n) -> Printf.printf "  %-44s %16.4f %-10s %d\n" name v u n)
    metrics;
  Printf.printf "  %-44s %16.6f %-10s %d\n" "fail_frac" (ratio (fi failed) (fi attempted)) "ratio"
    attempted;
  if !trace = 1 && !trace_out <> "" then Layers.write_records !trace_out;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, u, _) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) u)
          metrics));
  exit (if correct then 0 else 1)
