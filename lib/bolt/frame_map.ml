(* Per-function frame maps for on-stack replacement.

   A frame map records, for one BOLTed function, how addresses of the old
   code version correspond to addresses in the freshly emitted version, so
   that OCOLOS can migrate live frames (return addresses, paused PCs) into
   C_{i+1} instead of keeping the old text alive until they drain.

   The map is exact by construction. Every old block start maps to its new
   start, derived directly from the block-reorder pass's address mapping.
   Then the old and new instruction sequences of each block are paired
   positionally. Peephole-removed no-ops are skipped on the old side (their
   address maps to the next surviving instruction — exact, since a no-op
   has no effect); instructions that differ only in a statically relocated
   target (calls, branches, jumps, fp materializations) pair; and a
   conditional branch pairs with its negated form, which the emitter uses
   when the taken successor became the fallthrough — being *at* the branch
   is the same program point either way. The walk stops at the first real
   divergence. In emitted code that is only a jump-table dispatch: the
   table-base [Alui] names the old table, and the [Load]/[JumpInd] after
   it read through a register computed from that base, so no PC in the
   window may be rewritten into the new text. Such PCs resolve [None] and
   the caller evacuates the function by copy. *)

open Ocolos_isa

type block_site = {
  bs_bid : int;
  bs_old_start : int;
  bs_old_end : int; (* exclusive *)
  bs_new_start : int;
}

type t = {
  fm_fid : int;
  fm_old_entry : int;
  fm_new_entry : int;
  fm_blocks : block_site array; (* sorted by bs_old_start *)
  fm_exact : (int, int) Hashtbl.t; (* old pc -> new pc *)
}

(* Two instructions occupy the same program point if they are identical,
   differ only in a statically relocated target, or are conditional
   branches on one register whose conditions are equal or negated. *)
let pairable o n =
  o = n
  ||
  match (o, n) with
  | Instr.Branch (c, r, _), Instr.Branch (c', r', _) ->
    r = r' && (c' = c || c' = Ocolos_binary.Emit.negate_cond c)
  | _ -> (
    match (Instr.static_target o, Instr.static_target n) with
    | Some _, Some tn -> ( try Instr.with_target o tn = n with Invalid_argument _ -> false)
    | _ -> false)

(* Instruction-granular positional pairing of one block's old and new code.
   Invariant: at each step the next new instruction is the continuation of
   the program point at the next old instruction, so pairing their
   addresses is an exact migration. *)
let pair_block ~old_instrs ~new_instrs ~old_end ~block_new =
  let n_old = Array.length old_instrs and n_new = Array.length new_instrs in
  let pairs = ref [] in
  let stop = ref false in
  let i = ref 0 and j = ref 0 in
  while (not !stop) && !i < n_old do
    let old_addr, old_i = old_instrs.(!i) in
    if !j < n_new && pairable old_i (snd new_instrs.(!j)) then begin
      pairs := (old_addr, fst new_instrs.(!j)) :: !pairs;
      incr i;
      incr j
    end
    else if Peephole.is_noop_instr old_i then begin
      (* Removed by peephole: the program point survives as the next
         emitted instruction (or the fallthrough block if the no-op closed
         the block). *)
      (match if !j < n_new then Some (fst new_instrs.(!j)) else block_new old_end with
      | Some a -> pairs := (old_addr, a) :: !pairs
      | None -> ());
      incr i
    end
    else begin
      (* A trailing unconditional jump whose emitted form was elided (the
         reordered layout made its target the fallthrough): being *at* the
         jump is the same program point as being at its target. *)
      (match old_i with
      | Instr.Jump t -> (
        match block_new t with
        | Some a -> pairs := (old_addr, a) :: !pairs
        | None -> ())
      | _ -> ());
      stop := true
    end
  done;
  !pairs

let build ~fid ~old_entry ~new_entry ~blocks ~read_old ~new_instrs () =
  let sites =
    Array.map
      (fun (bid, old_start, old_end, new_start) ->
        { bs_bid = bid; bs_old_start = old_start; bs_old_end = old_end; bs_new_start = new_start })
      blocks
  in
  Array.sort (fun a b -> compare a.bs_old_start b.bs_old_start) sites;
  let block_new_tbl = Hashtbl.create (Array.length sites) in
  Array.iter (fun s -> Hashtbl.replace block_new_tbl s.bs_old_start s.bs_new_start) sites;
  let block_new addr = Hashtbl.find_opt block_new_tbl addr in
  let exact = Hashtbl.create 64 in
  let add (o, n) = if not (Hashtbl.mem exact o) then Hashtbl.replace exact o n in
  Array.iter
    (fun s ->
      (* Raw old code of the block, by size-accurate walk. *)
      let olds = ref [] in
      let a = ref s.bs_old_start in
      (try
         while !a < s.bs_old_end do
           match read_old !a with
           | Some i ->
             olds := (!a, i) :: !olds;
             a := !a + Instr.size i
           | None -> raise Exit
         done
       with Exit -> ());
      let old_instrs = Array.of_list (List.rev !olds) in
      let news = new_instrs s.bs_bid in
      (* The block start first: it holds even where the walk pairs
         nothing. *)
      if Array.length old_instrs > 0 && Array.length news > 0 then
        add (fst old_instrs.(0), fst news.(0));
      List.iter add
        (pair_block ~old_instrs ~new_instrs:news ~old_end:s.bs_old_end ~block_new))
    sites;
  { fm_fid = fid;
    fm_old_entry = old_entry;
    fm_new_entry = new_entry;
    fm_blocks = sites;
    fm_exact = exact }

let block_new_start t addr =
  (* binary search by old start; hit only on exact block starts *)
  let lo = ref 0 and hi = ref (Array.length t.fm_blocks - 1) and found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s = t.fm_blocks.(mid) in
    if s.bs_old_start = addr then found := Some s.bs_new_start
    else if s.bs_old_start < addr then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let containing_block t addr =
  let lo = ref 0 and hi = ref (Array.length t.fm_blocks - 1) and found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s = t.fm_blocks.(mid) in
    if addr < s.bs_old_start then hi := mid - 1
    else if addr >= s.bs_old_end then lo := mid + 1
    else found := Some s
  done;
  !found

let resolve t addr = Hashtbl.find_opt t.fm_exact addr

let exact_points t = Hashtbl.length t.fm_exact
