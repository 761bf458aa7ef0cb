(** Log-bucketed (HDR-style) latency histograms.

    Constant memory, O(1) record, and percentile estimates whose relative error
    is bounded by the sub-bucket width (1/16 of an octave). Buckets
    track count and sum, so a percentile that lands in a bucket reports
    that bucket's mean — exact for constant and two-point
    distributions. Recording charges no virtual cycles. *)

type t

val create : unit -> t
val record : t -> float -> unit

val count : t -> int
val mean : t -> float
val max_value : t -> float
val min_value : t -> float

val percentile : t -> float -> float option
(** [percentile t 99.] is the p99 estimate; [None] on an empty
    histogram, so table renderers cannot mistake "no samples" for a
    measured 0.0. *)

val percentile_exn : t -> float -> float
(** Like {!percentile} for callers that have already checked
    [count t > 0]. @raise Invalid_argument on an empty histogram. *)

(** {2 Named registry (mirrors [Stats] counters)} *)

val reset : unit -> unit
val observe : string -> float -> unit

type site
(** A named histogram resolved once per [reset] rather than hashed on
    every sample: for hot paths that record under a fixed name. *)

val site : string -> site
(** Creates nothing; the histogram appears in the registry on the first
    [observe_site], exactly as with [observe]. *)

val observe_site : site -> float -> unit
(** Same effect as [observe] on the site's name. *)

val named : string -> t
val find : string -> t option
val all : unit -> (string * t) list
val by_prefix : string -> (string * t) list

val summary_line : string -> t -> string
(** One table row: name, count, p50, p90, p99, max. *)

val summary_header : string
