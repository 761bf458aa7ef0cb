(** Virtual cycle clock for the whole simulated machine.

    The simulator is single-socket (SMP = 1, matching the paper's
    evaluation setup), so one global cycle counter suffices. Kernel and
    device code advance it by charging cycle costs; when every task is
    blocked, {!Events} advances it to the next scheduled event. *)

val cycles_per_us : int
(** Nominal frequency: 3000 cycles per microsecond (3 GHz). *)

val reset : unit -> unit
(** Reset the clock to cycle 0. Tests and benchmark runs call this. *)

val now : unit -> int64
(** Current virtual time in cycles. Allocates the [int64]. *)

val cycles : unit -> int
(** {!now} as an unboxed [int]: the same value, without allocating. *)

val charge : int -> unit
(** [charge n] advances virtual time by [n] cycles. [n < 0] is a
    programming error and raises [Invalid_argument]. *)

val advance_to : int64 -> unit
(** Jump forward to an absolute cycle count (used by the event queue when
    the machine is idle). Moving backwards is ignored. *)

val advance_to_cycles : int -> unit
(** {!advance_to} for an unboxed cycle count. *)

val set_on_advance : (int64 -> unit) -> unit
(** Install the clock observer: called with the delta on every forward
    movement of virtual time ([charge] or [advance_to]). There is one
    slot — kprof owns it. The observer must not charge cycles. *)

val clear_on_advance : unit -> unit
(** Empty the slot. *)

val set_on_advance2 : (int64 -> unit) -> unit
(** A second, independent observer slot (kspan owns it while enabled),
    called after the first on every forward movement. The observer must
    not charge cycles. *)

val clear_on_advance2 : unit -> unit
(** Empty the second slot. *)

val observers : unit -> int
(** Installed observers (0-2). An empty slot is never called. *)

val to_us : int64 -> float
(** Convert a cycle count to microseconds. *)

val to_seconds : int64 -> float

val us : float -> int
(** [us x] is the number of cycles in [x] microseconds. *)
