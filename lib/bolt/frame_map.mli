(** Per-function frame maps for on-stack replacement.

    A frame map records how addresses in the old code version of one BOLTed
    function correspond to addresses in the freshly emitted version: every
    block start, plus every instruction the positional walk proves carries
    the same program point in both versions. It is the data OCOLOS needs to
    rewrite live frames' return addresses and paused threads' PCs directly
    into C_{i+1}, retiring the old text immediately instead of keeping it
    alive until frames drain. *)

type block_site = {
  bs_bid : int;
  bs_old_start : int;
  bs_old_end : int;  (** exclusive *)
  bs_new_start : int;
}

type t = {
  fm_fid : int;
  fm_old_entry : int;
  fm_new_entry : int;
  fm_blocks : block_site array;  (** sorted by [bs_old_start] *)
  fm_exact : (int, int) Hashtbl.t;  (** old pc -> new pc *)
}

(** [build ~fid ~old_entry ~new_entry ~blocks ~read_old ~new_instrs ()]
    assembles a map. [blocks] lists (bid, old start, old end, new start)
    per basic block; [read_old] reads the old code image; [new_instrs]
    returns the emitted instructions of one bid in layout order.

    Each old block start maps to its new start. Within a block, the old
    and new instruction sequences are then paired positionally: identical
    instructions, instructions differing only in a statically relocated
    target, a conditional branch against the same register under the same
    or negated condition (the emitter inverts a branch whose taken
    successor became the fallthrough), and peephole-removed no-ops (mapped
    to the next surviving instruction) all pair. The walk stops at the
    first real divergence — in emitted code, only a jump-table dispatch:
    its table-base [Alui] names the old table, and the [Load]/[JumpInd]
    after it consume a register computed from that base. *)
val build :
  fid:int ->
  old_entry:int ->
  new_entry:int ->
  blocks:(int * int * int * int) array ->
  read_old:(int -> Ocolos_isa.Instr.t option) ->
  new_instrs:(int -> (int * Ocolos_isa.Instr.t) array) ->
  unit ->
  t

(** The new-version PC an old-version PC migrates to, or [None] when the
    map has no exact entry for it (the caller evacuates by copy). *)
val resolve : t -> int -> int option

(** Old block start -> new block start (None if not a block start). *)
val block_new_start : t -> int -> int option

(** The block whose old range contains the address. *)
val containing_block : t -> int -> block_site option

(** Number of instruction-granular map entries (telemetry). *)
val exact_points : t -> int
