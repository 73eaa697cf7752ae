(* Branch Target Buffer.

   Set-associative, tagged by branch PC, storing the predicted target. Only
   *taken* control transfers are allocated (the paper's motivation: layouts
   that convert taken branches into fallthroughs relieve BTB pressure).

   [lookup_class] and [update] run on every simulated taken transfer and
   allocate nothing on the host: the way and victim searches are top-level
   recursive functions over an [entry array], not local closures. *)

type entry = { mutable tag : int; mutable target : int; mutable stamp : int }

type t = {
  sets : int;
  ways : int;
  table : entry array array;
  mutable tick : int;
  mutable lookups : int;
  mutable misses : int;
}

let create ~entries ~ways =
  let sets = max 1 (entries / ways) in
  if sets land (sets - 1) <> 0 then invalid_arg "Btb.create: entries/ways must be a power of two";
  { sets;
    ways;
    table = Array.init sets (fun _ -> Array.init ways (fun _ -> { tag = -1; target = 0; stamp = 0 }));
    tick = 0;
    lookups = 0;
    misses = 0 }

let set_of t pc = (pc lsr 1) land (t.sets - 1)

(* Index of the way tagged [pc] in [set], or (-1). Top-level so the hot
   paths below allocate no closure per call. *)
let rec find_way (set : entry array) ways pc w =
  if w >= ways then -1
  else if (Array.unsafe_get set w).tag = pc then w
  else find_way set ways pc (w + 1)

(* The lookup both entry points share: bump the clock and the lookup
   count, then return the entry tagged [pc] with its stamp refreshed, or
   count a miss and return [no_entry]. *)
let no_entry = { tag = -1; target = 0; stamp = 0 }

let hit t pc =
  t.tick <- t.tick + 1;
  t.lookups <- t.lookups + 1;
  let set = t.table.(set_of t pc) in
  let w = find_way set t.ways pc 0 in
  if w < 0 then begin
    t.misses <- t.misses + 1;
    no_entry
  end
  else begin
    let e = Array.unsafe_get set w in
    e.stamp <- t.tick;
    e
  end

(* Look up the predicted target for a taken transfer at [pc]. *)
let lookup t pc =
  let e = hit t pc in
  if e == no_entry then None else Some e.target

(* [lookup] specialized for the interpreter's hot path: classify the
   prediction for a taken transfer at [pc] that actually went to [target]
   without allocating an option. Returns 0 on miss, 1 on a correct hit, 2
   on a wrong-target hit. *)
let lookup_class t pc ~target =
  let e = hit t pc in
  if e == no_entry then 0 else if e.target = target then 1 else 2

(* Victim for a fill: the first invalid way if any, else the least recently
   used (ties go to the lowest way index). *)
let rec victim_from (set : entry array) ways v w =
  if w >= ways then v
  else
    let e = Array.unsafe_get set w in
    if e.tag = -1 then w
    else victim_from set ways (if e.stamp < (Array.unsafe_get set v).stamp then w else v) (w + 1)

(* Record that the transfer at [pc] went to [target]. *)
let update t pc target =
  t.tick <- t.tick + 1;
  let set = t.table.(set_of t pc) in
  let w = find_way set t.ways pc 0 in
  let e = Array.unsafe_get set (if w >= 0 then w else victim_from set t.ways 0 0) in
  e.tag <- pc;
  e.target <- target;
  e.stamp <- t.tick

let reset_counters t =
  t.lookups <- 0;
  t.misses <- 0

let flush t =
  Array.iter (fun set -> Array.iter (fun e -> e.tag <- -1) set) t.table;
  reset_counters t

let miss_rate t = if t.lookups = 0 then 0.0 else float_of_int t.misses /. float_of_int t.lookups

let lookups t = t.lookups
let misses t = t.misses
