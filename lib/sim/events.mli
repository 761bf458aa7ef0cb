(** Discrete event queue driving the simulated machine.

    Device completions, timer interrupts, and wire deliveries are
    scheduled here. The kernel's scheduler polls [run_due] at dispatch
    boundaries and calls [run_next] when no task is runnable.

    Complexity: the queue is an indexed binary heap holding exactly the
    live events, ordered by (time, scheduling order). [schedule_at],
    [schedule_after], [cancel] and each event fired by [run_due] or
    [run_next] cost O(log live); [pending] is the heap size, O(1).
    Cancelled events leave nothing behind. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val clear : unit -> unit
(** Drop all pending events (start of a fresh simulation). Handles from
    before the clear become stale: cancelling one is a no-op. *)

val schedule_at : int64 -> (unit -> unit) -> handle
(** Run a callback when virtual time reaches the given cycle count.
    @raise Invalid_argument if the time is outside [\[0, max_int\]]. *)

val schedule_after : int -> (unit -> unit) -> handle
(** [schedule_after n f] runs [f] [n] cycles from now. *)

val cancel : handle -> unit
(** Remove the event from the queue. Cancelling an event that has
    already fired, was already cancelled, or was dropped by [clear] is a
    no-op. *)

val pending : unit -> int
(** Number of events still scheduled. *)

val run_due : unit -> bool
(** Run every event whose time is [<= Clock.now ()]. Returns [true] if at
    least one ran. *)

val run_next : unit -> bool
(** If the queue is non-empty, advance the clock to the earliest event and
    run it (plus anything else now due). Returns [false] when empty. *)
