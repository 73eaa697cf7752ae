(* Last Branch Record ring buffer.

   Models Intel's LBR facility (Section II-A of the paper): the 32 most
   recent taken control transfers, recorded as (source PC, target) pairs.
   Software samples the ring to reconstruct hot control-flow paths.

   [record] runs on every taken branch while sampling is attached, so the
   ring is two [int array]s written in place: recording allocates nothing.
   A snapshot is one flat [int array] of interleaved (from, to) pairs,
   oldest first — the only representation of a sampled batch. *)

type t = {
  from_addrs : int array;
  to_addrs : int array;
  mutable head : int; (* next write position *)
  mutable filled : int;
}

let capacity = 32

let create () =
  { from_addrs = Array.make capacity 0; to_addrs = Array.make capacity 0; head = 0; filled = 0 }

let record t ~from_addr ~to_addr =
  let h = t.head in
  Array.unsafe_set t.from_addrs h from_addr;
  Array.unsafe_set t.to_addrs h to_addr;
  t.head <- (h + 1) mod capacity;
  if t.filled < capacity then t.filled <- t.filled + 1

(* Entries oldest-first, interleaved (from, to). *)
let snapshot t =
  let n = t.filled in
  let out = Array.make (2 * n) 0 in
  let first = t.head + capacity - n in
  for i = 0 to n - 1 do
    let slot = (first + i) mod capacity in
    out.(2 * i) <- t.from_addrs.(slot);
    out.((2 * i) + 1) <- t.to_addrs.(slot)
  done;
  out

let clear t =
  t.head <- 0;
  t.filled <- 0

(* ---- sample-batch degradation (fault-injection support) ----

   Models what a flaky PMI delivery does to a snapshot: a truncated batch
   keeps only the newest half of the ring, and a corrupted batch has its
   entry addresses scrambled deterministically. Both are pure so the
   profiler's fault handling stays replayable from the seed. *)

(* Keep the newest [ceil (n/2)] entries (the oldest transfers are the ones
   a short read loses first). *)
let truncate_batch batch =
  let n = Array.length batch / 2 in
  let keep = (n + 1) / 2 in
  Array.sub batch (2 * (n - keep)) (2 * keep)

(* Scramble every entry's addresses with a fixed involution; corrupted
   records land outside any mapped symbol and must be dropped downstream. *)
let corrupt_batch batch = Array.map (fun a -> a lxor 0x5A5A_5A5A) batch
