(** Open-addressing int-to-int hash table for the simulator's data memory:
    [find_default], and [replace] of a bound key, allocate nothing and
    never leave OCaml (stdlib [Hashtbl] pays a [caml_hash] C call per
    operation). Linear probing,
    Fibonacci hashing, tombstone deletion. Keys must stay away from
    [min_int] (simulated addresses do). *)

type t

(** [create n] sizes the table for about [n] bindings. *)
val create : int -> t

(** Number of live bindings. *)
val length : t -> int

(** Independent copy: same bindings, shares no storage with the source. *)
val copy : t -> t

(** Value bound to [key], or [default] when absent; never allocates. *)
val find_default : t -> int -> default:int -> int

val find_opt : t -> int -> int option
val mem : t -> int -> bool

(** Bind [key] (inserting or overwriting). Overwriting allocates nothing;
    an insertion that regrows the table allocates the new arrays. *)
val replace : t -> int -> int -> unit

(** Remove [key]'s binding if present. *)
val remove : t -> int -> unit

val iter : (int -> int -> unit) -> t -> unit
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
