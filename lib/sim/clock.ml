let cycles_per_us = 3000

(* Unboxed: [charge] runs on every modelled cost, and an [int64] ref
   would box (and write-barrier) a fresh value each time. [now] boxes a
   fresh [int64] on every read, so the simulator's own hot readers
   (the event heap, kspan, task and lock accounting) use [cycles]
   instead. *)
let current = ref 0

let reset () = current := 0

let cycles () = !current

let now () = Int64.of_int !current

(* kprof taps the clock here: every way virtual time can move forward —
   an explicit charge or an event-driven jump — reports its delta to the
   observer, so an attribution profiler sees exactly the cycles that
   elapse and nothing else (the conservation invariant). Profiling
   never charges cycles itself. An empty slot costs one load per
   advance. *)
let on_advance : (int64 -> unit) option ref = ref None

let set_on_advance f = on_advance := Some f

let clear_on_advance () = on_advance := None

(* A second, independent observer slot so kspan can watch the clock
   without stealing kprof's tap (and vice versa). Span fills it while
   kspan is enabled. *)
let on_advance2 : (int64 -> unit) option ref = ref None

let set_on_advance2 f = on_advance2 := Some f

let clear_on_advance2 () = on_advance2 := None

let observers () =
  (match !on_advance with Some _ -> 1 | None -> 0)
  + match !on_advance2 with Some _ -> 1 | None -> 0

let advance d =
  current := !current + d;
  match (!on_advance, !on_advance2) with
  | None, None -> ()
  | o1, o2 -> (
    let d = Int64.of_int d in
    (match o1 with Some f -> f d | None -> ());
    match o2 with Some f -> f d | None -> ())

let charge n =
  if n < 0 then invalid_arg "Clock.charge: negative cost";
  if n > 0 then advance n

let advance_to_cycles t = if t > !current then advance (t - !current)

let advance_to t = advance_to_cycles (Int64.to_int t)

let to_us t = Int64.to_float t /. float_of_int cycles_per_us

let to_seconds t = to_us t /. 1_000_000.

let us x = int_of_float (x *. float_of_int cycles_per_us)
