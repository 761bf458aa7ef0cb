(* Host cost of the measured phase: wall time, OCaml allocation and GC
   counts (Gc.quick_stat), and time spent in GC phases (runtime events
   of this process). *)

let gc_ns = ref 0L

let depth = ref 0

let opened = ref 0L

let gc_phase = function
  | Runtime_events.EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE | EV_STW_LEADER | EV_STW_HANDLER -> true
  | _ -> false

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if gc_phase phase then begin
        if !depth = 0 then opened := Runtime_events.Timestamp.to_int64 ts;
        incr depth
      end)
    ~runtime_end:(fun _ ts phase ->
      if gc_phase phase && !depth > 0 then begin
        decr depth;
        if !depth = 0 then
          gc_ns := Int64.add !gc_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !opened)
      end)
    ()

let cursor = ref None

let start () =
  Runtime_events.start ();
  cursor := Some (Runtime_events.create_cursor None)

(* Drain the event ring; call often enough that it cannot wrap. *)
let tick () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

type snap = { wall : float; alloc : float; major_w : float; majors : int; gc : int64 }

let snap () =
  tick ();
  let s = Gc.quick_stat () in
  {
    wall = Common.host_s ();
    alloc = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    major_w = s.Gc.major_words;
    majors = s.Gc.major_collections;
    gc = !gc_ns;
  }

type delta = {
  d_wall : float;
  d_alloc : float;
  d_major_w : float;
  d_majors : int;
  d_gc_s : float;
}

let diff a b =
  {
    d_wall = b.wall -. a.wall;
    d_alloc = b.alloc -. a.alloc;
    d_major_w = b.major_w -. a.major_w;
    d_majors = b.majors - a.majors;
    d_gc_s = Int64.to_float (Int64.sub b.gc a.gc) /. 1e9;
  }
