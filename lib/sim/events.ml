(* An indexed binary min-heap ordered by (time, seq): seq breaks ties
   so that events scheduled earlier fire earlier, keeping runs
   deterministic. Each queued event records its heap slot, so [cancel]
   removes it at once instead of leaving a tombstone; the heap holds
   exactly the live events. [slot = -1] marks an event that has fired,
   was cancelled or was dropped by [clear]. *)

type event = { time : int; seq : int; mutable slot : int; run : unit -> unit }

type handle = event

let dummy = { time = 0; seq = 0; slot = -1; run = ignore }

let arr = ref (Array.make 64 dummy)

let len = ref 0

let seq = ref 0

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let place i e =
  !arr.(i) <- e;
  e.slot <- i

(* Move [e] up from the hole at [i] until its parent is not larger. *)
let rec sift_up i e =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let pe = !arr.(p) in
    if less e pe then begin
      place i pe;
      sift_up p e
    end
    else place i e
  end
  else place i e

(* Move [e] down from the hole at [i] until no child is smaller. *)
let rec sift_down i e =
  let l = (2 * i) + 1 in
  if l >= !len then place i e
  else begin
    let r = l + 1 in
    let c = if r < !len && less !arr.(r) !arr.(l) then r else l in
    let ce = !arr.(c) in
    if less ce e then begin
      place i ce;
      sift_down c e
    end
    else place i e
  end

(* Take the event at slot [i] out of the heap; the last event fills
   the hole and moves whichever way restores the order. *)
let remove_at i =
  let e = !arr.(i) in
  decr len;
  let last = !arr.(!len) in
  !arr.(!len) <- dummy;
  e.slot <- -1;
  if i < !len then
    if i > 0 && less last !arr.((i - 1) / 2) then sift_up i last else sift_down i last;
  e

let clear () =
  for i = 0 to !len - 1 do
    !arr.(i).slot <- -1;
    !arr.(i) <- dummy
  done;
  len := 0

let insert time run =
  incr seq;
  let e = { time; seq = !seq; slot = -1; run } in
  if !len = Array.length !arr then begin
    let bigger = Array.make (2 * !len) dummy in
    Array.blit !arr 0 bigger 0 !len;
    arr := bigger
  end;
  incr len;
  sift_up (!len - 1) e;
  e

let schedule_at time run =
  if Int64.compare time 0L < 0 || Int64.compare time (Int64.of_int max_int) > 0 then
    invalid_arg "Events.schedule_at: time outside [0, max_int]";
  insert (Int64.to_int time) run

let schedule_after n run =
  if n < 0 then invalid_arg "Events.schedule_after: negative delay";
  let now = Clock.cycles () in
  if n > max_int - now then invalid_arg "Events.schedule_at: time outside [0, max_int]";
  insert (now + n) run

let cancel e = if e.slot >= 0 then ignore (remove_at e.slot : event)

let pending () = !len

let run_due () =
  let ran = ref false in
  while !len > 0 && !arr.(0).time <= Clock.cycles () do
    let e = remove_at 0 in
    ran := true;
    e.run ()
  done;
  !ran

let run_next () =
  if !len = 0 then false
  else begin
    let e = remove_at 0 in
    Clock.advance_to_cycles e.time;
    e.run ();
    ignore (run_due ());
    true
  end
