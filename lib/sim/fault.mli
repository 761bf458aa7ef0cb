(** Deterministic fault-injection plane.

    Device models (and a few allocator hot paths) consult named fault
    sites before doing their work; a configured site fires with its
    probability, drawn from a dedicated splitmix64 stream so that a given
    seed always yields the same fault schedule regardless of what the
    rest of the simulation does with the shared RNG. Every injection is
    appended to a log of [virtual-time site ordinal] lines, which the
    chaos suite compares byte-for-byte across runs to prove determinism.

    Sites used by the tree today:

    - ["blk.io_error"]  virtio-blk completes the request with status 1
    - ["blk.drop"]      virtio-blk never writes status nor raises its IRQ
    - ["blk.delay"]     virtio-blk adds extra service latency
    - ["net.drop"]      virtio-net loses a frame (TX or RX)
    - ["net.corrupt"]   virtio-net flips a byte in a frame
    - ["net.dup"]       virtio-net duplicates a frame
    - ["iommu.fault"]   a translation spuriously faults
    - ["irq.spurious"]  the interrupt chip raises an unclaimed vector
    - ["irq.storm"]     one device interrupt is delivered as a burst
    - ["alloc.fail"]    Falloc/Slab report a transient allocation failure

    The plane is disabled (all sites pass) until {!configure} is called,
    so ordinary boots and tests never pay for it. *)

val configure : seed:int64 -> (string * float) list -> unit
(** Arm the plane: [(site, probability)] pairs, probabilities in [0,1].
    Replaces any previous configuration and clears the log. *)

val disable : unit -> unit
(** Stop injecting but keep the log (for post-run verification). *)

val reset : unit -> unit
(** Full reset: disabled, no sites, empty log. Called on board reset. *)

val enabled : unit -> bool

val active : string -> bool
(** The site is configured with a positive probability and the plane is
    enabled. *)

val roll : string -> bool
(** Draw for one consult of the site. [true] means inject. Unconfigured
    sites return [false] without consuming randomness, so adding fault
    sites to new device models never perturbs existing schedules. *)

val delay_cycles : string -> max_cycles:int -> int
(** [0] unless the site fires; otherwise a deterministic extra latency in
    [1, max_cycles]. *)

val burst : string -> max:int -> int
(** [0] unless the site fires; otherwise a deterministic burst size in
    [1, max]. *)

val injected : string -> int
(** Number of times the site has fired since {!configure}. *)

val total_injected : unit -> int

val log : unit -> string list
(** Chronological injection log; identical for identical seeds and
    schedules. *)

val summary : unit -> (string * int) list
(** Per-site injection counts, sorted by site name. *)

(** {1 Deterministic one-shot triggers}

    Orthogonal to the probability plane: a trigger fires on exactly the
    k-th consult of its site, with no randomness involved. Used to
    enumerate crash points — ["blk.power_cut"] armed with [~after:k]
    kills the device after exactly [k] persisted sectors. Triggers are
    cleared by {!reset} (hence by every board reset), so arm them after
    boot. *)

val set_trigger : string -> after:int -> unit
(** Arm a one-shot trigger: the [after]-th {!countdown} call for this
    site fires (0-based — [~after:0] fires on the very first consult).
    A negative [after] raises [Invalid_argument]. *)

val clear_trigger : string -> unit

val countdown : string -> bool
(** Consult a triggered site. Returns [true] exactly once, on the armed
    consult; the firing is logged under ["fault.injected.<site>"]. *)
