(** Branch Target Buffer.

    Set-associative, tagged by branch PC, storing the predicted target. Only
    taken control transfers are allocated, so layouts that convert taken
    branches into fallthroughs relieve BTB pressure (paper Section II-B). *)

type t

(** [create ~entries ~ways]; [entries / ways] must be a power of two. *)
val create : entries:int -> ways:int -> t

(** Predicted target for a taken transfer at [pc]; [None] counts a miss. *)
val lookup : t -> int -> int option

(** [lookup] specialized for the interpreter's hot path: classify the
    prediction for a taken transfer at [pc] that actually went to [target]
    without allocating. Identical counter/stamp effects as {!lookup}.
    Returns 0 on miss, 1 on a correct hit, 2 on a wrong-target hit. *)
val lookup_class : t -> int -> target:int -> int

(** Record that the transfer at [pc] went to [target]; allocates nothing. *)
val update : t -> int -> int -> unit

val reset_counters : t -> unit
val flush : t -> unit
val miss_rate : t -> float

(** Counter accessors. *)
val lookups : t -> int

val misses : t -> int
