(** Welford's running mean/variance accumulator, with Chan's parallel
    merge — the one accumulator behind [Stats.Summary] and the [Metrics]
    histograms.

    The textbook [sumsq/n - mean^2] formula cancels catastrophically for
    large-offset samples (1e9 + {0,1,2} returns 0 or NaN); the running
    mean and sum of squared deviations stay accurate at any offset. *)

type t

val create : unit -> t
val add : t -> float -> unit

val merge : into:t -> t -> unit
(** Fold [src] into [into] with Chan's combine: exact count/mean/m2 and
    min/max.  An empty side never disturbs the other — an empty [src]
    leaves [into] untouched, an empty [into] takes [src] verbatim, so the
    empty-state extrema sentinels never mix with real samples. *)

val reset : t -> unit
val count : t -> int

val mean : t -> float
(** The running mean; [0.] when empty. *)

val stddev : t -> float
(** Population standard deviation; [0.] below two samples. *)

val min : t -> float
(** Smallest sample; [infinity] when empty. *)

val max : t -> float
(** Largest sample; [neg_infinity] when empty. *)
