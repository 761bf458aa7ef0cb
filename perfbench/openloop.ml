(* Open-loop load: seeded Poisson arrivals at an offered rate, each op
   timed from when it was due, not from when a client got to send it.

   Arrivals are simulator events, so the generator costs no guest CPU;
   it can still run late when a long dispatch delays the event loop,
   and that lateness is recorded. Ops are handed to host-side client
   tasks (simulated TCP on the host stack); while every client is busy
   they queue, and the queueing counts in their latency. *)

open Common

type step = {
  rate : float; (* offered ops per virtual second *)
  n : int;
  due : int64 array;
  lat_us : float array; (* infinity until completed, and for failed ops *)
  depth : int array; (* ops outstanding when op i arrived *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable lag_max_us : float;
  mutable bytes : int; (* verified payload bytes *)
  mutable t_begin : int64;
  mutable t_end : int64;
}

let make ~rate ~n =
  {
    rate;
    n;
    due = Array.make n 0L;
    lat_us = Array.make n infinity;
    depth = Array.make n 0;
    submitted = 0;
    completed = 0;
    failed = 0;
    lag_max_us = 0.;
    bytes = 0;
    t_begin = 0L;
    t_end = 0L;
  }

let complete st i ~ok ~bytes =
  let now = Sim.Clock.now () in
  if ok then begin
    st.lat_us.(i) <- us_of_cycles (Int64.sub now st.due.(i));
    st.bytes <- st.bytes + bytes
  end
  else st.failed <- st.failed + 1;
  st.completed <- st.completed + 1;
  if Int64.compare now st.t_end > 0 then st.t_end <- now

(* Run one step to completion: schedule the arrivals (unit-rate [gaps]
   scaled to the step's rate), hand each due op to [submit], and
   dispatch until every op completed or the machine went idle. Ops
   still open when the machine idles never will finish: failures. *)
let run st ~gaps ~submit =
  let t0 = Sim.Clock.now () in
  st.t_begin <- t0;
  st.t_end <- t0;
  let cycles_per_unit = cycles_per_us *. 1e6 /. st.rate in
  let acc = ref 0. in
  for i = 0 to st.n - 1 do
    acc := !acc +. gaps.(i);
    st.due.(i) <- Int64.add t0 (Int64.of_float (!acc *. cycles_per_unit))
  done;
  let rec arrive i () =
    let lag = us_of_cycles (Int64.sub (Sim.Clock.now ()) st.due.(i)) in
    if lag > st.lag_max_us then st.lag_max_us <- lag;
    st.depth.(i) <- st.submitted - st.completed;
    st.submitted <- st.submitted + 1;
    if i + 1 < st.n then ignore (Sim.Events.schedule_at st.due.(i + 1) (arrive (i + 1)));
    submit i
  in
  if st.n > 0 then ignore (Sim.Events.schedule_at st.due.(0) (arrive 0));
  Aster.Kernel.run_until (fun () -> st.completed >= st.n);
  if st.completed < st.n then begin
    st.failed <- st.failed + (st.n - st.completed);
    st.completed <- st.n
  end

(* Let in-flight teardown (FIN/ACK, delayed ACKs) finish so one step
   does not bleed into the next. *)
let settle ~us =
  let target = Int64.add (Sim.Clock.now ()) (Int64.of_float (us *. cycles_per_us)) in
  let reached = ref false in
  ignore (Sim.Events.schedule_at target (fun () -> reached := true));
  Aster.Kernel.run_until (fun () -> !reached)

let mean_depth st lo hi =
  let s = ref 0 in
  for i = lo to hi - 1 do
    s := !s + st.depth.(i)
  done;
  ratio (fi !s) (fi (hi - lo))

(* A backlog grows when the client-side queue in the second half of the
   step is well above the first half's: the server is not keeping up. *)
let growing st =
  let h = st.n / 2 in
  mean_depth st h st.n > (2. *. mean_depth st 0 h) +. 4.

let backlog_end st = if st.n = 0 then 0 else st.depth.(st.n - 1)

let lat_sorted st = sorted st.lat_us

(* Over the SLO: the p99 misses it, any op failed (a failed op counts as
   missing the SLO), or the backlog grew. *)
let within_slo ~slo_us st =
  st.failed = 0 && (not (growing st)) && pct (lat_sorted st) 99. <= slo_us

let virtual_s st = Int64.to_float (Int64.sub st.t_end st.t_begin) /. (cycles_per_us *. 1e6)

(* Bisect the offered rate in log space between a rate known to pass
   ([lo], the light step) and one expected to fail ([hi]), for a fixed
   number of steps so the total op count is known up front. Returns the
   highest rate that passed and every step it ran. *)
let search ~lo ~hi ~steps ~slo_us ~run_at =
  let lo = ref lo and hi = ref hi in
  let ran = ref [] in
  for j = 0 to steps - 1 do
    let mid = sqrt (!lo *. !hi) in
    let st = run_at j mid in
    ran := st :: !ran;
    if within_slo ~slo_us st then lo := mid else hi := mid
  done;
  (!lo, List.rev !ran)

(* The rate where p99 crosses the SLO, from a least-squares line through
   log p99 against log rate over the search steps that passed the
   failure and backlog checks within a factor 1.5 of the bisection's
   answer [lo]. The bisection samples densely around the crossing, so
   the fit averages the p99 noise of several steps instead of trusting
   the last decision. Falls back to [lo] when the fit has no rising
   slope; never leaves the bracket the search could resolve. *)
let fit_crossing ~slo_us ~lo ~light ~hi steps =
  let pts =
    List.filter_map
      (fun st ->
        if st.failed = 0 && (not (growing st)) && st.rate >= lo /. 1.5 && st.rate <= lo *. 1.5
        then Some (log st.rate, log (pct (lat_sorted st) 99.))
        else None)
      steps
  in
  let n = fi (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
  let den = (n *. sxx) -. (sx *. sx) in
  if n < 3. || den <= 0. then lo
  else
    let b = ((n *. sxy) -. (sx *. sy)) /. den in
    let a = (sy -. (b *. sx)) /. n in
    if b <= 0. then lo else Float.min hi (Float.max light (exp ((log slo_us -. a) /. b)))

(* --- A pool of host client tasks that serve a job queue --- *)

type pool = { jobs : (unit -> unit) Queue.t; mutable idle : Ostd.Task.t list }

let create_pool ~name ~size =
  let p = { jobs = Queue.create (); idle = [] } in
  for w = 1 to size do
    ignore
      (Ostd.Task.spawn ~name:(Printf.sprintf "%s-%d" name w) (fun () ->
           let rec loop () =
             match Queue.take_opt p.jobs with
             | Some job ->
               job ();
               loop ()
             | None ->
               p.idle <- Ostd.Task.current () :: p.idle;
               Ostd.Task.block ();
               loop ()
           in
           loop ()))
  done;
  p

let push p job =
  Queue.push job p.jobs;
  match p.idle with
  | t :: rest ->
    p.idle <- rest;
    Ostd.Task.wake t
  | [] -> ()

(* --- One open-loop measurement: light step, rate search, heavy step --- *)

(* p50, and the highest percentile with at least ten samples beyond it,
   each with the step's sample count. *)
let step_line label st =
  let s = lat_sorted st in
  let top = Option.value ~default:50. (highest_pct s) in
  Printf.sprintf
    "%-9s rate=%9.0f/s n=%5d failed=%d p50=%9.1fus p%g=%9.1fus lag_max=%8.1fus depth_mean=%6.1f backlog_end=%4d growing=%b"
    label st.rate st.n st.failed (pct s 50.) top (pct s top) st.lag_max_us
    (mean_depth st 0 st.n) (backlog_end st) (growing st)

(* Step slots: 0 is the light step, 1..search_steps the search, and
   search_steps+1 the heavy step. [run_slot j rate] runs slot j. *)
let slot_sizes () =
  let steps = pi "search_steps" in
  Array.init (steps + 2) (fun j ->
      if j = 0 then pi "n_light" else if j = steps + 1 then pi "n_heavy" else pi "n_search")

let measure ~setup_s ~h0 ~ctx ~run_slot =
  let slo_us = pf "slo_us" and light = pf "light_rps" and heavy = pf "heavy_rps" in
  let steps = pi "search_steps" in
  let v0 = Sim.Clock.now () in
  let laps = ref [] and ref_before = ref (Calib.sample ()) in
  let run_slot j rate =
    let t0 = host_s () in
    let st = run_slot j rate in
    let d = host_s () -. t0 in
    let ref_after = Calib.sample () in
    laps := (d, (!ref_before +. ref_after) /. 2.) :: !laps;
    ref_before := ref_after;
    st
  in
  let light_st = run_slot 0 light in
  let found, search =
    search ~lo:light ~hi:(pf "search_hi_rps") ~steps ~slo_us ~run_at:(fun j r -> run_slot (j + 1) r)
  in
  let slo_rps =
    if within_slo ~slo_us light_st then
      fit_crossing ~slo_us ~lo:found ~light ~hi:(pf "search_hi_rps") search
    else 0.
  in
  Layers.window_start ctx;
  let heavy_st = run_slot (steps + 1) heavy in
  let layers = Layers.window_end ~ops:heavy_st.n ~body_bytes:heavy_st.bytes in
  let h1 = Hostm.snap () in
  let all = (light_st :: search) @ [ heavy_st ] in
  let sum f = List.fold_left (fun a st -> a + f st) 0 all in
  let hs = lat_sorted heavy_st in
  let v_heavy = virtual_s heavy_st in
  let ok = heavy_st.n - heavy_st.failed in
  let v =
    Report.
      [ vm "v_slo_rps" slo_rps "req/s" steps;
        vm "v_tps" (ratio (fi ok) v_heavy) "ops/s" heavy_st.n;
        vm "v_lat_p50_us" (pct hs 50.) "us" heavy_st.n;
        vm "v_lat_p99_us" (pct hs 99.) "us" heavy_st.n;
        vm "v_lat_p99_us_light" (pct (lat_sorted light_st) 99.) "us" light_st.n;
        vm "v_goodput_mb_s" (ratio (fi heavy_st.bytes) v_heavy /. 1e6) "MB/s" heavy_st.n ]
  in
  let end_cycle = Sim.Clock.now () in
  {
    Report.setup_s;
    host = Hostm.diff h0 h1;
    laps = Array.of_list (List.rev !laps);
    ops = sum (fun st -> st.n - st.failed);
    attempted = sum (fun st -> st.n);
    failed = sum (fun st -> st.failed);
    virtual_s = Int64.to_float (Int64.sub end_cycle v0) /. (cycles_per_us *. 1e6);
    v;
    vkey =
      Digest.string
        (Marshal.to_string
           (end_cycle, slo_rps, List.map (fun st -> (st.rate, st.lat_us, st.bytes)) all,
            List.map (fun m -> m.Report.value) v)
           []);
    gen_lag_us_max = heavy_st.lag_max_us;
    backlog_end = backlog_end heavy_st;
    layers;
    steps =
      (step_line "light" light_st
      :: List.mapi (fun j st -> step_line (Printf.sprintf "search%d" (j + 1)) st) search)
      @ [ step_line "heavy" heavy_st ];
  }
