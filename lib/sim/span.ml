(* kspan: causal request-span tracing with critical-path analysis.

   A span is one request. Its id is allocated at the request boundary
   (syscall entry in auto mode; an explicit annotation in mini_redis /
   mini_nginx) and rides every asynchronous carrier the request
   touches: bios keep it across adjacent-run merges, batch splits and
   per-bio retries; TX frames keep it across plug bursts and mid-burst
   failures; the IRQ → softirq → wakeup edge hands it back to the
   sleeping task. While live, a span accumulates typed time segments;
   when it ends, overlaps are resolved by a fixed priority order into
   a critical-path decomposition that sums exactly to the span's wall
   time.

   Segment sources:
   - [cpu.<scope>]   every clock advance while the owning task is on
                     CPU, labelled with the innermost kprof scope
                     (the scope stack is maintained even when kprof
                     attribution is off);
   - [blocked]       descheduled -> woken, the low-priority catch-all;
   - [sched.delay]   woken/runnable -> dispatched;
   - [irq<v>]/[softirq]  wake-context entry -> wakeup, recorded on the
                     woken span (the delivery leg of a completion);
   - [blk.queue/service/irq], [net.plug/service/irq]  carrier
                     timestamps stamped by the block layer, netstack
                     and virtio drivers (device-side completion time
                     comes from a timestamp the device model writes
                     into the descriptor);
   - [jbd.commit]    the commit+FUA barrier inside fsync.

   Like ktrace/kprof/kprobe, the plane is free in virtual time: it
   never charges cycles and never consumes randomness, so a span-on
   same-seed run is byte-identical to a span-off one. *)

(* Segment bounds are unboxed cycle counts: the clock observer below
   extends a segment on every advance. *)
type seg = { slabel : string; mutable s_t0 : int; mutable s_t1 : int }

type t = {
  id : int;
  cls : string;
  name : string;
  tid : int;
  t_begin : int64;
  mutable t_end : int64; (* 0 while live *)
  mutable segs : seg list; (* newest first *)
  mutable nsegs : int;
  mutable truncated : int;
  mutable last_off : int; (* cycle the owning task last left the CPU *)
  mutable path : (string * int64) list; (* filled at end: descending *)
  mutable residual : int64;
}

(* Segment cap per span: beyond it, new segments are dropped and
   counted, so a pathological span cannot hold the heap hostage. The
   dropped time still shows up — as residual — rather than silently
   inflating a named segment. *)
let max_segs = 512

let reservoir_cap = 64

type agg = {
  mutable a_count : int;
  mutable a_total : int64;
  a_hist : Hist.t; (* wall time, µs *)
  a_segs : (string, int64 ref) Hashtbl.t; (* critical-path totals *)
  mutable a_residual : int64;
  mutable a_res : t list; (* slowest-N reservoir, ascending duration *)
}

let enabled_flag = ref false

let auto_flag = ref false

let next_id = ref 0

let finished = ref 0

let live : (int, t) Hashtbl.t = Hashtbl.create 64

let active : (int, t) Hashtbl.t = Hashtbl.create 16 (* tid -> live span *)

let class_tbl : (string, agg) Hashtbl.t = Hashtbl.create 16

let current_tid = ref 0

let wake_ctx : (string * int) list ref = ref []

let enabled () = !enabled_flag

let auto () = !auto_flag

let set_auto b = auto_flag := b

let clear () =
  next_id := 0;
  finished := 0;
  Hashtbl.reset live;
  Hashtbl.reset active;
  Hashtbl.reset class_tbl;
  current_tid := 0;
  wake_ctx := []

let live_count () = Hashtbl.length live

let finished_count () = !finished

(* --- Segments --- *)

(* How many of the newest segments to scan for a same-label merge.
   Batch completions record one near-identical leg per bio or frame of
   the batch (32x blk.queue sharing a q_end, 32x blk.service, ...), in
   one consecutive run; without merging a single large fsync exhausts
   [max_segs] and its tail — the part that explains the latency — is
   lost to truncation. A small window keeps insertion O(1). *)
let merge_window = 8

let add_seg sp label t0 t1 =
  if t1 > t0 && Int64.equal sp.t_end 0L then begin
    (* Coalesce into a recent same-label segment when the intervals
       touch or overlap: the union is a single interval, so the
       critical-path sweep sees exactly the same coverage. *)
    let rec coalesce k segs =
      k < merge_window
      &&
      match segs with
      | [] -> false
      | s :: tl ->
        if
          String.equal s.slabel label
          && s.s_t0 <= t1
          && t0 <= s.s_t1
        then begin
          if t0 < s.s_t0 then s.s_t0 <- t0;
          if t1 > s.s_t1 then s.s_t1 <- t1;
          true
        end
        else coalesce (k + 1) tl
    in
    if not (coalesce 0 sp.segs) then begin
      if sp.nsegs >= max_segs then sp.truncated <- sp.truncated + 1
      else begin
        sp.segs <- { slabel = label; s_t0 = t0; s_t1 = t1 } :: sp.segs;
        sp.nsegs <- sp.nsegs + 1
      end
    end
  end

let add_to id label t0 t1 =
  if id <> 0 && !enabled_flag then
    match Hashtbl.find_opt live id with
    | Some sp -> add_seg sp label (Int64.to_int t0) (Int64.to_int t1)
    | None -> ()

let active_span () =
  if !current_tid = 0 then None else Hashtbl.find_opt active !current_tid

let mark label t0 =
  if !enabled_flag then
    match active_span () with
    | Some sp -> add_seg sp label (Int64.to_int t0) (Clock.cycles ())
    | None -> ()

(* CPU attribution: the second clock observer. Every advance while a
   task with an active span is on CPU becomes a [cpu.<scope>] segment
   labelled with the innermost kprof scope (memoized: no allocation on
   the steady-state path). *)

let cpu_labels : (string, string) Hashtbl.t = Hashtbl.create 64

let cpu_label scope =
  match Hashtbl.find_opt cpu_labels scope with
  | Some l -> l
  | None ->
    let l = "cpu." ^ scope in
    Hashtbl.add cpu_labels scope l;
    l

let on_advance d =
  if !current_tid <> 0 then
    match Hashtbl.find_opt active !current_tid with
    | Some sp ->
      let now = Clock.cycles () in
      add_seg sp (cpu_label (Prof.current_label ())) (now - Int64.to_int d) now
    | None -> ()

(* The observer is installed only while kspan is enabled, so a
   span-off run pays nothing per clock advance. *)
let enable () =
  enabled_flag := true;
  Clock.set_on_advance2 on_advance

let disable () =
  enabled_flag := false;
  Clock.clear_on_advance2 ()

(* --- Critical path ---

   Overlapping segments are the normal case (a [blk.irq] completion
   leg overlaps the [softirq] wake context, which overlaps the span's
   [blocked] catch-all). The decomposition resolves each instant to
   the most specific explanation by priority, so the parts sum to the
   wall time exactly and nothing is double-counted. *)

let prio label =
  if label = "blocked" then 10
  else if String.starts_with ~prefix:"cpu." label then 100
  else if label = "sched.delay" then 90
  else if label = "softirq" then 85
  else if String.starts_with ~prefix:"irq" label then 80
  else if label = "blk.irq" || label = "net.irq" then 75
  else if label = "blk.service" || label = "net.service" then 70
  else if label = "jbd.commit" then 65
  else if label = "blk.queue" || label = "net.plug" then 60
  else 50

let compute_path sp =
  let lo = sp.t_begin and hi = sp.t_end in
  let clip t = if Int64.compare t lo < 0 then lo else if Int64.compare t hi > 0 then hi else t in
  let segs =
    List.rev_map (fun s -> (s.slabel, clip (Int64.of_int s.s_t0), clip (Int64.of_int s.s_t1))) sp.segs
    |> List.filter (fun (_, a, b) -> Int64.compare b a > 0)
  in
  let total = Int64.sub hi lo in
  if Int64.compare total 0L <= 0 then begin
    sp.path <- [];
    sp.residual <- 0L
  end
  else if segs = [] then begin
    sp.path <- [];
    sp.residual <- total
  end
  else begin
    let bounds =
      lo :: hi :: List.concat_map (fun (_, a, b) -> [ a; b ]) segs
      |> List.sort_uniq Int64.compare
    in
    let tbl : (string, int64 ref) Hashtbl.t = Hashtbl.create 16 in
    let residual = ref 0L in
    let rec sweep = function
      | a :: (b :: _ as tl) ->
        let dur = Int64.sub b a in
        if Int64.compare dur 0L > 0 then begin
          let best =
            List.fold_left
              (fun acc (l, sa, sb) ->
                if Int64.compare sa a <= 0 && Int64.compare sb b >= 0 then
                  match acc with
                  | Some (_, bp) when prio l <= bp -> acc
                  | _ -> Some (l, prio l)
                else acc)
              None segs
          in
          match best with
          | Some (l, _) ->
            let r =
              match Hashtbl.find_opt tbl l with
              | Some r -> r
              | None ->
                let r = ref 0L in
                Hashtbl.add tbl l r;
                r
            in
            r := Int64.add !r dur
          | None -> residual := Int64.add !residual dur
        end;
        sweep tl
      | _ -> ()
    in
    sweep bounds;
    sp.path <-
      Hashtbl.fold (fun l r acc -> (l, !r) :: acc) tbl []
      |> List.sort (fun (la, a) (lb, b) ->
             let c = Int64.compare b a in
             if c <> 0 then c else String.compare la lb);
    sp.residual <- !residual
  end

(* --- Aggregation --- *)

let agg_of cls =
  match Hashtbl.find_opt class_tbl cls with
  | Some a -> a
  | None ->
    let a =
      {
        a_count = 0;
        a_total = 0L;
        a_hist = Hist.create ();
        a_segs = Hashtbl.create 16;
        a_residual = 0L;
        a_res = [];
      }
    in
    Hashtbl.add class_tbl cls a;
    a

let span_dur sp = Int64.sub sp.t_end sp.t_begin

let res_insert a sp =
  let cmp x y = Int64.compare (span_dur x) (span_dur y) in
  if List.length a.a_res < reservoir_cap then a.a_res <- List.merge cmp a.a_res [ sp ]
  else
    match a.a_res with
    | fastest :: rest when Int64.compare (span_dur sp) (span_dur fastest) > 0 ->
      a.a_res <- List.merge cmp rest [ sp ]
    | _ -> ()

let finish sp =
  sp.t_end <- Clock.now ();
  Hashtbl.remove live sp.id;
  (match Hashtbl.find_opt active sp.tid with
  | Some cur when cur == sp -> Hashtbl.remove active sp.tid
  | _ -> ());
  compute_path sp;
  incr finished;
  let a = agg_of sp.cls in
  a.a_count <- a.a_count + 1;
  a.a_total <- Int64.add a.a_total (span_dur sp);
  Hist.record a.a_hist (Clock.to_us (span_dur sp));
  List.iter
    (fun (l, d) ->
      match Hashtbl.find_opt a.a_segs l with
      | Some r -> r := Int64.add !r d
      | None -> Hashtbl.add a.a_segs l (ref d))
    sp.path;
  a.a_residual <- Int64.add a.a_residual sp.residual;
  res_insert a sp

(* --- Boundaries --- *)

let current () =
  if not !enabled_flag then 0
  else match active_span () with Some sp -> sp.id | None -> 0

let begin_ ~cls ~name =
  if (not !enabled_flag) || !current_tid = 0 || Hashtbl.mem active !current_tid then 0
  else begin
    incr next_id;
    let sp =
      {
        id = !next_id;
        cls;
        name;
        tid = !current_tid;
        t_begin = Clock.now ();
        t_end = 0L;
        segs = [];
        nsegs = 0;
        truncated = 0;
        last_off = 0;
        path = [];
        residual = 0L;
      }
    in
    Hashtbl.replace live sp.id sp;
    Hashtbl.replace active sp.tid sp;
    sp.id
  end

let end_ id =
  if id <> 0 then
    match Hashtbl.find_opt live id with Some sp -> finish sp | None -> ()

let annotate_begin ~cls ~name = ignore (begin_ ~cls ~name)

let annotate_end () = match active_span () with Some sp -> finish sp | None -> ()

let sys_classes : (string, string) Hashtbl.t = Hashtbl.create 64

let sys_class name =
  match Hashtbl.find_opt sys_classes name with
  | Some c -> c
  | None ->
    let c = "sys." ^ name in
    Hashtbl.add sys_classes name c;
    c

let syscall_begin name =
  if !enabled_flag && !auto_flag then begin_ ~cls:(sys_class name) ~name else 0

let syscall_end id = end_ id

(* --- Scheduler and interrupt edges --- *)

let on_deschedule () =
  (if !enabled_flag then
     match active_span () with
     | Some sp -> sp.last_off <- Clock.cycles ()
     | None -> ());
  current_tid := 0

let on_dispatch ~tid ~waited =
  current_tid := tid;
  if !enabled_flag then
    match Hashtbl.find_opt active tid with
    | Some sp ->
      let now = Clock.cycles () in
      let runnable = now - Int64.to_int waited in
      if sp.last_off > 0 then begin
        add_seg sp "blocked" sp.last_off runnable;
        sp.last_off <- 0
      end;
      add_seg sp "sched.delay" runnable now
    | None -> ()

let on_wake ~tid =
  if !enabled_flag && !wake_ctx <> [] then
    match Hashtbl.find_opt active tid with
    | Some sp ->
      let now = Clock.cycles () in
      List.iter (fun (label, entered) -> add_seg sp label entered now) !wake_ctx
    | None -> ()

let on_task_exit tid =
  (match Hashtbl.find_opt active tid with
  | Some sp -> finish sp
  | None -> ());
  if !current_tid = tid then current_tid := 0

let enter_wake_ctx label = wake_ctx := (label, Clock.cycles ()) :: !wake_ctx

let exit_wake_ctx () =
  match !wake_ctx with [] -> () | _ :: rest -> wake_ctx := rest

(* --- Conservation counters --- *)

let count_bio_completed () = Stats.incr "span.bio_completed"

(* --- Inspection --- *)

type info = {
  i_id : int;
  i_cls : string;
  i_name : string;
  i_tid : int;
  i_begin : int64;
  i_dur : int64;
  i_residual : int64;
  i_path : (string * int64) list;
  i_segs : (string * int64 * int64) list;
}

let info_of sp =
  {
    i_id = sp.id;
    i_cls = sp.cls;
    i_name = sp.name;
    i_tid = sp.tid;
    i_begin = sp.t_begin;
    i_dur = span_dur sp;
    i_residual = sp.residual;
    i_path = sp.path;
    i_segs = List.rev_map (fun s -> (s.slabel, Int64.of_int s.s_t0, Int64.of_int s.s_t1)) sp.segs;
  }

let class_names () =
  Hashtbl.fold (fun c _ acc -> c :: acc) class_tbl [] |> List.sort String.compare

let classes () = class_names ()

let class_count cls =
  match Hashtbl.find_opt class_tbl cls with Some a -> a.a_count | None -> 0

let tail cls =
  match Hashtbl.find_opt class_tbl cls with
  | None -> []
  | Some a -> List.rev_map info_of a.a_res (* slowest first *)

let class_p99 cls =
  match Hashtbl.find_opt class_tbl cls with
  | None -> None
  | Some a -> (
    match List.rev a.a_res with
    | [] -> None
    | slowest_first ->
      (* With count requests, the p99 rank sits count/100 below the
         maximum; the reservoir holds the slowest 64, so the estimate
         is exact while count <= 100 * cap. *)
      let idx = min (a.a_count / 100) (List.length slowest_first - 1) in
      Some (info_of (List.nth slowest_first idx)))

let dominant_class () =
  let entries = Hashtbl.fold (fun c a acc -> (c, a.a_count) :: acc) class_tbl [] in
  let pick = function
    | [] -> None
    | l ->
      Some
        (fst
           (List.fold_left
              (fun (bc, bn) (c, n) ->
                if n > bn || (n = bn && String.compare c bc < 0) then (c, n) else (bc, bn))
              (List.hd l) (List.tl l)))
  in
  match
    List.filter (fun (c, _) -> not (String.starts_with ~prefix:"sys." c)) entries
  with
  | [] -> pick entries
  | app -> pick app

let max_residual_frac () =
  Hashtbl.fold
    (fun _ a acc ->
      List.fold_left
        (fun acc sp ->
          let d = span_dur sp in
          if Int64.compare d 0L > 0 then
            max acc (Int64.to_float sp.residual /. Int64.to_float d)
          else acc)
        acc a.a_res)
    class_tbl 0.

(* --- Rendering --- *)

let pct part total =
  if Int64.compare total 0L <= 0 then 0.
  else 100. *. Int64.to_float part /. Int64.to_float total

let render_proc () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "# kspan: enabled=%b auto=%b live=%d finished=%d classes=%d\n"
       !enabled_flag !auto_flag (Hashtbl.length live) !finished
       (Hashtbl.length class_tbl));
  List.iter
    (fun cls ->
      let a = Hashtbl.find class_tbl cls in
      let p q =
        match Hist.percentile a.a_hist q with
        | Some v -> Printf.sprintf "%.1f" v
        | None -> "-"
      in
      Buffer.add_string b
        (Printf.sprintf
           "class %-16s count=%-8d total_us=%-12.1f p50_us=%s p90_us=%s p99_us=%s max_us=%s reservoir=%d\n"
           cls a.a_count (Clock.to_us a.a_total) (p 50.) (p 90.) (p 99.)
           (Printf.sprintf "%.1f" (Hist.max_value a.a_hist))
           (List.length a.a_res));
      let segs =
        Hashtbl.fold (fun l r acc -> (l, !r) :: acc) a.a_segs []
        |> List.sort (fun (la, x) (lb, y) ->
               let c = Int64.compare y x in
               if c <> 0 then c else String.compare la lb)
      in
      List.iter
        (fun (l, d) ->
          Buffer.add_string b
            (Printf.sprintf "  %-28s %10.1fus %6.2f%%\n" l (Clock.to_us d)
               (pct d a.a_total)))
        segs;
      if Int64.compare a.a_residual 0L > 0 then
        Buffer.add_string b
          (Printf.sprintf "  %-28s %10.1fus %6.2f%%\n" "unattributed"
             (Clock.to_us a.a_residual)
             (pct a.a_residual a.a_total)))
    (class_names ());
  Buffer.contents b

let waterfall b inf =
  Buffer.add_string b
    (Printf.sprintf "span %d %s:%s tid=%d start=%.1fus dur=%.1fus residual=%.2f%%\n"
       inf.i_id inf.i_cls inf.i_name inf.i_tid (Clock.to_us inf.i_begin)
       (Clock.to_us inf.i_dur)
       (pct inf.i_residual inf.i_dur));
  let bar_w = 32 in
  let dur = max 1L inf.i_dur in
  let segs =
    List.sort
      (fun (_, a, _) (_, b, _) -> Int64.compare a b)
      inf.i_segs
  in
  List.iter
    (fun (l, t0, t1) ->
      let off = Int64.sub (max t0 inf.i_begin) inf.i_begin in
      let len = Int64.sub (min t1 (Int64.add inf.i_begin inf.i_dur)) (max t0 inf.i_begin) in
      if Int64.compare len 0L > 0 then begin
        let scale v = Int64.to_int (Int64.div (Int64.mul v (Int64.of_int bar_w)) dur) in
        let s = min (scale off) (bar_w - 1) in
        let w = max 1 (min (scale len) (bar_w - s)) in
        Buffer.add_string b
          (Printf.sprintf "  +%10.1fus %10.1fus %-28s |%s%s%s|\n" (Clock.to_us off)
             (Clock.to_us len) l (String.make s ' ') (String.make w '#')
             (String.make (bar_w - s - w) ' '))
      end)
    segs;
  Buffer.add_string b "  critical path: ";
  Buffer.add_string b
    (String.concat ", "
       (List.map
          (fun (l, d) -> Printf.sprintf "%s %.1f%%" l (pct d inf.i_dur))
          inf.i_path));
  if Int64.compare inf.i_residual 0L > 0 then
    Buffer.add_string b
      (Printf.sprintf ", unattributed %.1f%%" (pct inf.i_residual inf.i_dur));
  Buffer.add_char b '\n'

let render_top ~k =
  let b = Buffer.create 1024 in
  (match dominant_class () with
  | None -> Buffer.add_string b "no finished spans\n"
  | Some cls ->
    Buffer.add_string b
      (Printf.sprintf "slowest %d of class %s (%d finished)\n"
         (min k (List.length (tail cls)))
         cls (class_count cls));
    List.iteri (fun i inf -> if i < k then waterfall b inf) (tail cls));
  List.iter
    (fun cls ->
      let a = Hashtbl.find class_tbl cls in
      Buffer.add_string b (Printf.sprintf "critical-path histogram (%s):\n" cls);
      let segs =
        Hashtbl.fold (fun l r acc -> (l, !r) :: acc) a.a_segs []
        |> List.sort (fun (la, x) (lb, y) ->
               let c = Int64.compare y x in
               if c <> 0 then c else String.compare la lb)
      in
      let segs =
        if Int64.compare a.a_residual 0L > 0 then segs @ [ ("unattributed", a.a_residual) ]
        else segs
      in
      List.iter
        (fun (l, d) ->
          let p = pct d a.a_total in
          let w = int_of_float (p /. 100. *. 40.) in
          Buffer.add_string b
            (Printf.sprintf "  %-28s %6.2f%% |%s%s|\n" l p (String.make w '#')
               (String.make (40 - w) ' ')))
        segs)
    (class_names ());
  Buffer.contents b

(* --- Chrome trace-event JSON (Perfetto) --- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let chrome_complete ~name ~cat ~ts_us ~dur_us ~track ~args =
  let args_s =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) args)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{%s}}"
    (json_escape name) (json_escape cat) ts_us dur_us track args_s

let chrome_instant ~ts_us ~name ~cat ~args =
  let args_s =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) args)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{%s}}"
    (json_escape name) (json_escape cat) ts_us args_s

let chrome_events () =
  List.concat_map
    (fun cls ->
      List.concat_map
        (fun inf ->
          chrome_complete
            ~name:(inf.i_cls ^ ":" ^ inf.i_name)
            ~cat:"span"
            ~ts_us:(Clock.to_us inf.i_begin)
            ~dur_us:(Clock.to_us inf.i_dur)
            ~track:inf.i_id
            ~args:
              [
                ("class", inf.i_cls);
                ("span", string_of_int inf.i_id);
                ("residual_us", Printf.sprintf "%.3f" (Clock.to_us inf.i_residual));
              ]
          :: List.filter_map
               (fun (l, t0, t1) ->
                 if Int64.compare t1 t0 > 0 then
                   Some
                     (chrome_complete ~name:l ~cat:"seg" ~ts_us:(Clock.to_us t0)
                        ~dur_us:(Clock.to_us (Int64.sub t1 t0))
                        ~track:inf.i_id ~args:[])
                 else None)
               inf.i_segs)
        (tail cls))
    (class_names ())

let chrome_wrap events =
  "{\"traceEvents\":[\n" ^ String.concat ",\n" events ^ "\n]}\n"

(* Tag ktrace records with the active span id: ktrace cannot depend on
   this module (we depend on it for nothing, but keeping the provider
   injection mirrors the task-name idiom and avoids a cycle if spans
   ever emit records). *)
let () = Trace.set_span_provider current
