(** Named counters collected during a simulation run.

    Used for strace-style syscall histograms, IOTLB hit rates, packet
    counts, and the benchmark harness's measurements. *)

val reset : unit -> unit

val incr : string -> unit
val add : string -> int -> unit
val get : string -> int
(** Missing counters read as 0. *)

val counters : unit -> (string * int) list
(** All counters, sorted by name. *)

val by_prefix : string -> (string * int) list
(** Counters whose name starts with the prefix, sorted by name. *)

val sum_prefix : string -> int
(** Sum of all counters sharing a prefix. *)

val fault_report : unit -> (string * int) list
(** The chaos quartet: injected / retried / recovered / gave_up.
    Computed by prefix — [fault.injected.*] and
    [degrade.{retried,recovered,gave_up}.*] — so degradation paths
    self-register by counter name alone. *)

val geomean : float list -> float
(** Geometric mean; 0 on the empty list. *)
