(* Predecoded basic blocks: the flat-array representation behind the
   decoded-block execution engine.

   A block is a maximal straight-line run of instructions starting at
   [b_start]: it extends instruction by instruction until a control transfer
   (which, if present, is always the *last* entry), until the next address
   holds no instruction, or until [max_len]. Entries are stored as parallel
   arrays (address, byte size, instruction) so the executor reaches each
   entry with an unchecked array read: no hash table, no option, no
   allocation while running a block. Decoding allocates the block's three
   exact-length arrays and a list cell per entry, nothing sized by
   [max_len].

   Decoding is pure with respect to the machine: it only reads the code map
   (via the [read] callback), so predecoding ahead of execution has no
   microarchitectural side effects. *)

type block = {
  b_start : int;  (* address of the first instruction *)
  b_end : int;  (* one past the last instruction's last byte *)
  b_addrs : int array;  (* instruction start addresses, ascending *)
  b_sizes : int array;  (* byte sizes, [b_sizes.(i) = Instr.size b_instrs.(i)] *)
  b_instrs : Instr.t array;
}

let length b = Array.length b.b_instrs

(* Default cap on block length. Bounds both decode look-ahead and the staleness
   window between the per-instruction limit checks of the executor. *)
let default_max_len = 64

(* Decode the block starting at [start]. Returns [None] when [start] itself
   holds no instruction (the caller faults, exactly as a fetch would).

   Invariant relied on by the executor: every entry except possibly the last
   is NOT a control transfer, so a block body always falls through
   internally and only its final instruction may redirect the PC. *)
let decode ~read ?(max_len = default_max_len) start =
  match read start with
  | None -> None
  | Some first ->
    let max_len = max 1 max_len in
    (* Collect the run newest-first, then fill arrays of exactly its length:
       no [max_len]-sized scratch to allocate and trim per decode. A control
       transfer ends the block; so does running off mapped code (the next
       dispatch will fault or decode a fresh block there). *)
    let rec scan rev n addr instr =
      let rev = instr :: rev and n = n + 1 and next = addr + Instr.size instr in
      if n >= max_len || Instr.is_control_flow instr then (rev, n, next)
      else match read next with None -> (rev, n, next) | Some i -> scan rev n next i
    in
    let rev, n, b_end = scan [] 0 start first in
    let instrs = Array.make n first in
    List.iteri (fun k i -> Array.unsafe_set instrs (n - 1 - k) i) rev;
    let sizes = Array.map Instr.size instrs in
    let addrs = Array.make n start in
    for k = 1 to n - 1 do
      addrs.(k) <- addrs.(k - 1) + sizes.(k - 1)
    done;
    Some { b_start = start; b_end; b_addrs = addrs; b_sizes = sizes; b_instrs = instrs }

(* True when the block's decoded entries still match [read]'s view of the
   code map — the coherence predicate the invalidation discipline maintains. *)
let coherent ~read b =
  let ok = ref true in
  Array.iteri
    (fun i addr -> if read addr <> Some b.b_instrs.(i) then ok := false)
    b.b_addrs;
  !ok

let pp fmt b =
  Fmt.pf fmt "@[<v>block 0x%x..0x%x (%d instrs)@,%a@]" b.b_start b.b_end (length b)
    (Fmt.iter_bindings ~sep:Fmt.cut
       (fun f arr -> Array.iteri (fun i x -> f i x) arr)
       (fun fmt (i, instr) -> Fmt.pf fmt "  0x%x: %a" b.b_addrs.(i) Instr.pp instr))
    b.b_instrs
