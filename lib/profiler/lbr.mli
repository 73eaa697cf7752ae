(** Last Branch Record ring buffer (Intel LBR analog, 32 entries): the most
    recent taken control transfers as (source PC, target) pairs.

    The ring is two [int array]s written in place, so {!record} — called on
    every taken branch while sampling — allocates nothing. A sampled batch
    is one flat [int array] of interleaved (from, to) pairs, oldest first:
    entry [i] is [(batch.(2i), batch.(2i+1))]. *)

type t

val capacity : int
val create : unit -> t

(** Push one taken transfer, overwriting the oldest once the ring is full.
    Allocates nothing. *)
val record : t -> from_addr:int -> to_addr:int -> unit

(** Current contents as a fresh flat batch, oldest first. *)
val snapshot : t -> int array

val clear : t -> unit

(** Degraded snapshot of a sample batch: only the newest half of the
    entries survives (a short PMI read). Pure; used by the profiler's fault
    handling. *)
val truncate_batch : int array -> int array

(** Degraded snapshot of a sample batch: every address scrambled by a fixed
    involution, so corrupted records resolve to no symbol downstream. *)
val corrupt_batch : int array -> int array
