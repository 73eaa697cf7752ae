(* Unit tests for the microarchitecture models: caches, TLB, BTB, branch
   prediction, the core cost model and TopDown attribution. *)

open Ocolos_uarch

let test_cache_hit_after_access () =
  let c = Cache.create ~name:"t" ~sets:4 ~ways:2 ~line_bytes:64 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0x100);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0x100);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x13F);
  Alcotest.(check bool) "different line misses" false (Cache.access c 0x140)

let test_cache_lru_eviction () =
  (* 1 set, 2 ways: the least-recently-used line is evicted. *)
  let c = Cache.create ~name:"t" ~sets:1 ~ways:2 ~line_bytes:64 in
  ignore (Cache.access c 0x000);
  ignore (Cache.access c 0x040);
  ignore (Cache.access c 0x000);
  (* touch A so B is LRU *)
  ignore (Cache.access c 0x080);
  (* evicts B *)
  Alcotest.(check bool) "A still resident" true (Cache.probe c 0x000);
  Alcotest.(check bool) "B evicted" false (Cache.probe c 0x040);
  Alcotest.(check bool) "C resident" true (Cache.probe c 0x080)

let test_cache_counters_and_flush () =
  let c = Cache.of_size ~name:"t" ~size_bytes:512 ~ways:2 ~line_bytes:64 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  Alcotest.(check int) "accesses" 3 (Cache.accesses c);
  Alcotest.(check (float 1e-9)) "miss rate" (2.0 /. 3.0) (Cache.miss_rate c);
  Cache.flush c;
  Alcotest.(check bool) "flushed" false (Cache.probe c 0);
  Alcotest.(check int) "counters reset" 0 (Cache.accesses c)

let test_cache_prefetch_no_counters () =
  let c = Cache.create ~name:"t" ~sets:4 ~ways:2 ~line_bytes:64 in
  ignore (Cache.prefetch c 0x200);
  Alcotest.(check int) "prefetch uncounted" 0 (Cache.accesses c);
  Alcotest.(check bool) "but resident" true (Cache.probe c 0x200)

let test_cache_prefetch_hit_preserves_recency () =
  (* A prefetch of a resident line must leave recency (and the LRU clock)
     untouched: promoting it would let prefetch-hits reorder demand
     evictions. A, then B (A becomes LRU); a prefetch-hit on A must not
     save A from the next demand eviction. *)
  let c = Cache.create ~name:"t" ~sets:1 ~ways:2 ~line_bytes:64 in
  ignore (Cache.access c 0x000);
  ignore (Cache.access c 0x040);
  Alcotest.(check bool) "prefetch reports resident" true (Cache.prefetch c 0x000);
  ignore (Cache.access c 0x080);
  Alcotest.(check bool) "prefetch-hit line still LRU, evicted" false (Cache.probe c 0x000);
  Alcotest.(check bool) "younger demand line survives" true (Cache.probe c 0x040);
  (* A prefetch *fill* does become MRU, like a demand fill. *)
  let c = Cache.create ~name:"t" ~sets:1 ~ways:2 ~line_bytes:64 in
  ignore (Cache.access c 0x000);
  Alcotest.(check bool) "prefetch fill" false (Cache.prefetch c 0x040);
  ignore (Cache.access c 0x080);
  Alcotest.(check bool) "prefetched line MRU, survives" true (Cache.probe c 0x040);
  Alcotest.(check bool) "older demand line evicted" false (Cache.probe c 0x000)

let test_cache_of_size_rejects_inexact () =
  let rejects ~size_bytes ~ways ~line_bytes =
    match Cache.of_size ~name:"t" ~size_bytes ~ways ~line_bytes with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "size not a multiple of line" true
    (rejects ~size_bytes:1000 ~ways:2 ~line_bytes:64);
  Alcotest.(check bool) "lines not a multiple of ways" true
    (rejects ~size_bytes:(3 * 64) ~ways:2 ~line_bytes:64);
  Alcotest.(check bool) "derived sets not a power of two" true
    (rejects ~size_bytes:(6 * 64) ~ways:2 ~line_bytes:64);
  Alcotest.(check bool) "zero size" true (rejects ~size_bytes:0 ~ways:2 ~line_bytes:64);
  Alcotest.(check bool) "exact geometry accepted" false
    (rejects ~size_bytes:(8 * 64) ~ways:2 ~line_bytes:64)

let test_cache_sizing () =
  let c = Cache.of_size ~name:"t" ~size_bytes:32768 ~ways:8 ~line_bytes:64 in
  Alcotest.(check int) "32k" 32768 (Cache.size_bytes c)

let test_cache_invalid_args () =
  Alcotest.(check bool) "non-pow2 sets rejected" true
    (match Cache.create ~name:"t" ~sets:3 ~ways:1 ~line_bytes:64 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_btb () =
  let b = Btb.create ~entries:16 ~ways:2 in
  Alcotest.(check (option int)) "cold miss" None (Btb.lookup b 0x10);
  Btb.update b 0x10 0x99;
  Alcotest.(check (option int)) "hit after update" (Some 0x99) (Btb.lookup b 0x10);
  Btb.update b 0x10 0x77;
  Alcotest.(check (option int)) "target updated" (Some 0x77) (Btb.lookup b 0x10);
  Alcotest.(check int) "lookups" 3 (Btb.lookups b);
  Alcotest.(check int) "misses" 1 (Btb.misses b)

let test_btb_capacity_pressure () =
  (* More taken branches than entries: old entries get evicted. *)
  let b = Btb.create ~entries:8 ~ways:2 in
  for i = 0 to 63 do
    Btb.update b (i * 4) i
  done;
  Btb.reset_counters b;
  let hits = ref 0 in
  for i = 0 to 63 do
    if Btb.lookup b (i * 4) <> None then incr hits
  done;
  Alcotest.(check bool) "only a fraction survives" true (!hits <= 8)

let test_btb_lookup_class_matches_lookup () =
  (* The allocation-free hot-path classifier agrees with [lookup] and moves
     the same counters. *)
  let b = Btb.create ~entries:16 ~ways:2 in
  Alcotest.(check int) "cold miss is 0" 0 (Btb.lookup_class b 0x10 ~target:0x99);
  Btb.update b 0x10 0x99;
  Alcotest.(check int) "correct hit is 1" 1 (Btb.lookup_class b 0x10 ~target:0x99);
  Alcotest.(check int) "wrong-target hit is 2" 2 (Btb.lookup_class b 0x10 ~target:0x77);
  Alcotest.(check int) "lookups counted" 3 (Btb.lookups b);
  Alcotest.(check int) "misses counted" 1 (Btb.misses b);
  (* Same recency effect: a classify keeps the entry warm under pressure. *)
  let via_lookup = Btb.create ~entries:4 ~ways:2 and via_class = Btb.create ~entries:4 ~ways:2 in
  List.iter
    (fun b ->
      Btb.update b 0x10 1;
      Btb.update b 0x90 2)
    [ via_lookup; via_class ];
    (* both map to set 0 (entries/ways = 2 sets); touch 0x10, then insert a
       third entry — the untouched 0x90 must be the victim in both *)
  ignore (Btb.lookup via_lookup 0x10);
  ignore (Btb.lookup_class via_class 0x10 ~target:1);
  List.iter (fun b -> Btb.update b 0x110 3) [ via_lookup; via_class ];
  Alcotest.(check (option int)) "touched entry survives (lookup)" (Some 1)
    (Btb.lookup via_lookup 0x10);
  Alcotest.(check (option int)) "touched entry survives (class)" (Some 1)
    (Btb.lookup via_class 0x10)

let test_ras_pop_correct_matches_pop () =
  let r = Predictor.Ras.create ~size:4 () in
  Predictor.Ras.push r 1;
  Predictor.Ras.push r 2;
  Alcotest.(check bool) "correct prediction" true (Predictor.Ras.pop_correct r ~target:2);
  Alcotest.(check bool) "wrong prediction still pops" false
    (Predictor.Ras.pop_correct r ~target:42);
  Alcotest.(check bool) "empty stack predicts nothing" false
    (Predictor.Ras.pop_correct r ~target:1);
  (* State effects identical to [pop]: the wrong-target pop above consumed
     the entry for 1, so a fresh push/pop round-trips normally. *)
  Predictor.Ras.push r 9;
  Alcotest.(check (option int)) "stack still consistent" (Some 9) (Predictor.Ras.pop r)

let test_predictor_learns_bias () =
  let p = Predictor.create ~history_bits:8 () in
  for _ = 1 to 200 do
    ignore (Predictor.predict_and_update p 0x40 ~taken:true)
  done;
  Alcotest.(check bool) "predicts taken" true (Predictor.predict p 0x40);
  Alcotest.(check bool) "low misprediction" true (Predictor.misprediction_rate p < 0.1)

let test_predictor_learns_pattern () =
  (* Alternating T/N is learned through global history. *)
  let p = Predictor.create ~history_bits:8 () in
  let taken = ref false in
  for _ = 1 to 64 do
    taken := not !taken;
    ignore (Predictor.predict_and_update p 0x40 ~taken:!taken)
  done;
  Predictor.reset_counters p;
  for _ = 1 to 200 do
    taken := not !taken;
    ignore (Predictor.predict_and_update p 0x40 ~taken:!taken)
  done;
  Alcotest.(check bool) "pattern learned" true (Predictor.misprediction_rate p < 0.05)

let test_ras () =
  let r = Predictor.Ras.create ~size:4 () in
  Predictor.Ras.push r 1;
  Predictor.Ras.push r 2;
  Alcotest.(check (option int)) "pop 2" (Some 2) (Predictor.Ras.pop r);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Predictor.Ras.pop r);
  Alcotest.(check (option int)) "empty" None (Predictor.Ras.pop r)

let test_ras_overflow_wraps () =
  let r = Predictor.Ras.create ~size:2 () in
  Predictor.Ras.push r 1;
  Predictor.Ras.push r 2;
  Predictor.Ras.push r 3;
  (* clobbers the oldest *)
  Alcotest.(check (option int)) "pop 3" (Some 3) (Predictor.Ras.pop r);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Predictor.Ras.pop r);
  Alcotest.(check (option int)) "oldest lost" None (Predictor.Ras.pop r)

let test_core_fetch_accounting () =
  let core = Core.create ~cfg:Config.tiny () in
  Core.fetch core ~addr:0x1000 ~size:4;
  let c = Core.snapshot core in
  Alcotest.(check int) "one instr" 1 c.Counters.instructions;
  Alcotest.(check int) "one L1i access" 1 c.Counters.l1i_accesses;
  Alcotest.(check int) "one L1i miss" 1 c.Counters.l1i_misses;
  Alcotest.(check bool) "cycles > 0" true (c.Counters.cycles > 0.0);
  (* Same line again: no further L1i access. *)
  Core.fetch core ~addr:0x1004 ~size:4;
  let c = Core.snapshot core in
  Alcotest.(check int) "still one access" 1 c.Counters.l1i_accesses

let test_core_taken_branch_costs () =
  let core = Core.create ~cfg:Config.tiny () in
  Core.fetch core ~addr:0x1000 ~size:4;
  let before = (Core.snapshot core).Counters.fe_cycles in
  Core.on_cond_branch core ~pc:0x1000 ~taken:true ~target:0x2000;
  let c = Core.snapshot core in
  Alcotest.(check int) "taken counted" 1 c.Counters.taken_branches;
  Alcotest.(check int) "cond counted" 1 c.Counters.cond_branches;
  Alcotest.(check bool) "fe charged" true (c.Counters.fe_cycles > before)

let test_core_not_taken_branch_free () =
  let core = Core.create ~cfg:Config.tiny () in
  (* Train the predictor so not-taken is predicted. *)
  for _ = 1 to 50 do
    Core.on_cond_branch core ~pc:0x1000 ~taken:false ~target:0x2000
  done;
  let before = (Core.snapshot core).Counters.fe_cycles in
  Core.on_cond_branch core ~pc:0x1000 ~taken:false ~target:0x2000;
  let c = Core.snapshot core in
  Alcotest.(check (float 1e-9)) "no fe cost" before c.Counters.fe_cycles;
  Alcotest.(check int) "no taken" 0 c.Counters.taken_branches

let test_core_ret_ras () =
  let core = Core.create ~cfg:Config.tiny () in
  Core.on_call core ~pc:0x1000 ~target:0x2000 ~return_addr:0x1005 ~indirect:false;
  let before = (Core.snapshot core).Counters.mispredicts in
  Core.on_ret core ~pc:0x2000 ~target:0x1005;
  let c = Core.snapshot core in
  Alcotest.(check int) "ras predicted the return" before c.Counters.mispredicts;
  Core.on_ret core ~pc:0x2001 ~target:0x9999;
  let c = Core.snapshot core in
  Alcotest.(check int) "empty ras mispredicts" (before + 1) c.Counters.mispredicts

let test_core_mem_hierarchy () =
  let core = Core.create ~cfg:Config.tiny () in
  Core.on_mem core ~addr:0x8000;
  let c1 = Core.snapshot core in
  Alcotest.(check int) "l1d miss" 1 c1.Counters.l1d_misses;
  Alcotest.(check bool) "be charged" true (c1.Counters.be_cycles > 0.0);
  Core.on_mem core ~addr:0x8000;
  let c2 = Core.snapshot core in
  Alcotest.(check int) "then hits" 1 c2.Counters.l1d_misses

let test_topdown_sums_to_one () =
  let core = Core.create ~cfg:Config.tiny () in
  for i = 0 to 999 do
    Core.fetch core ~addr:(0x1000 + (i * 64 mod 4096)) ~size:4;
    if i mod 7 = 0 then Core.on_cond_branch core ~pc:i ~taken:(i mod 2 = 0) ~target:(i * 3);
    if i mod 11 = 0 then Core.on_mem core ~addr:(i * 512)
  done;
  let td = Counters.topdown (Core.snapshot core) in
  let total =
    td.Counters.retiring +. td.Counters.frontend +. td.Counters.bad_speculation
    +. td.Counters.backend
  in
  Alcotest.(check (float 1e-6)) "fractions sum to 1" 1.0 total

let test_counters_diff_add () =
  let core = Core.create ~cfg:Config.tiny () in
  Core.fetch core ~addr:0 ~size:4;
  let a = Core.snapshot core in
  Core.fetch core ~addr:64 ~size:4;
  let b = Core.snapshot core in
  let d = Counters.diff b a in
  Alcotest.(check int) "one instr in interval" 1 d.Counters.instructions;
  let sum = Counters.add a d in
  Alcotest.(check int) "add inverts diff" b.Counters.instructions sum.Counters.instructions

let test_counters_mpki () =
  let c = { Counters.zero with Counters.instructions = 2000; l1i_misses = 5 } in
  Alcotest.(check (float 1e-9)) "mpki" 2.5 (Counters.l1i_mpki c)

let test_stall_categories () =
  let core = Core.create ~cfg:Config.tiny () in
  Core.stall core ~cycles:10.0 ~category:`Frontend;
  Core.stall core ~cycles:5.0 ~category:`Backend;
  Core.stall core ~cycles:2.0 ~category:`BadSpec;
  let c = Core.snapshot core in
  Alcotest.(check (float 1e-9)) "fe" 10.0 c.Counters.fe_cycles;
  Alcotest.(check (float 1e-9)) "be" 5.0 c.Counters.be_cycles;
  Alcotest.(check (float 1e-9)) "bs" 2.0 c.Counters.bs_cycles

(* The DRAM controller model: spread demand is serviced at the base
   interval; bursty demand pays the conflict interval (the mechanism behind
   the paper's scan inversion). *)
let test_dram_burst_model () =
  (* Minimal exact geometries (of_size rejects inexact ones): one or two
     sets per level, so the 4 KiB-stride accesses below all miss to DRAM. *)
  let cfg = { Config.tiny with Config.l1d_bytes = 128; l2_bytes = 128; l3_bytes = 256 } in
  let bursty = Core.create ~cfg () in
  (* Back-to-back distinct lines: everything misses to DRAM with tiny demand
     gaps -> queueing delays accumulate. *)
  for i = 0 to 99 do
    Core.on_mem bursty ~addr:(i * 4096)
  done;
  let spread = Core.create ~cfg () in
  for i = 0 to 99 do
    (* Insert compute time between misses so demand is spread. *)
    Core.stall spread ~cycles:(float_of_int cfg.Config.dram_burst_window +. 50.0)
      ~category:`Frontend;
    Core.on_mem spread ~addr:(i * 4096)
  done;
  let be_bursty = (Core.snapshot bursty).Counters.be_cycles in
  let be_spread = (Core.snapshot spread).Counters.be_cycles in
  Alcotest.(check bool)
    (Printf.sprintf "bursty pays more (%.0f vs %.0f)" be_bursty be_spread)
    true (be_bursty > be_spread *. 1.5)

(* The next-line prefetcher: sequential fetch through a region bigger than
   the L1i misses far less than striding through the same bytes. *)
let test_next_line_prefetch_rewards_sequential () =
  let cfg = Config.broadwell in
  let seq = Core.create ~cfg () in
  for i = 0 to 2_000 do
    Core.fetch seq ~addr:(0x10000 + (i * 64)) ~size:4
  done;
  let strided = Core.create ~cfg () in
  for i = 0 to 2_000 do
    (* Same number of lines, but in a shuffled (non-sequential) order. *)
    Core.fetch strided ~addr:(0x10000 + (i * 7919 mod 2001 * 64)) ~size:4
  done;
  let m_seq = (Core.snapshot seq).Counters.l1i_misses in
  let m_str = (Core.snapshot strided).Counters.l1i_misses in
  Alcotest.(check bool)
    (Printf.sprintf "sequential %d << strided %d" m_seq m_str)
    true
    (m_seq * 4 < m_str)

let test_itlb_pressure () =
  let cfg = Config.broadwell in
  let core = Core.create ~cfg () in
  (* Touch more pages than the iTLB holds, twice: the second pass still
     misses. *)
  for pass = 1 to 2 do
    ignore pass;
    for p = 0 to (2 * cfg.Config.itlb_entries) - 1 do
      Core.fetch core ~addr:(p * cfg.Config.page_bytes) ~size:4
    done
  done;
  let c = Core.snapshot core in
  Alcotest.(check bool) "itlb misses accumulate" true
    (c.Counters.itlb_misses > 2 * cfg.Config.itlb_entries);
  (* A loop within one page stops missing. *)
  let core2 = Core.create ~cfg () in
  for _ = 1 to 100 do
    Core.fetch core2 ~addr:0x5000 ~size:4;
    (* Different line in the same page, to exercise the page check. *)
    Core.fetch core2 ~addr:0x5100 ~size:4
  done;
  Alcotest.(check int) "single-page loop misses once" 1
    (Core.snapshot core2).Counters.itlb_misses

(* ---- the per-instruction primitives allocate nothing ---- *)

(* Each probe drives a primitive through its slow paths (misses, fills,
   evictions) as well as its hits: a closure or a boxed float anywhere on
   those paths shows up as a nonzero word count. *)

let test_cache_access_no_alloc () =
  let c = Cache.create ~name:"t" ~sets:16 ~ways:4 ~line_bytes:64 in
  let i = ref 0 in
  Alloc.check_zero "Cache.access" (fun () ->
      incr i;
      (* Every third access repeats the previous line (the way memo); the
         rest scatter, missing and evicting. *)
      let addr = if !i mod 3 = 0 then Alloc.scatter (!i - 1) else Alloc.scatter !i in
      ignore (Cache.access c addr));
  Alcotest.(check bool) "pattern is miss-heavy" true (c.Cache.misses > c.Cache.hits)

let test_cache_prefetch_no_alloc () =
  let c = Cache.create ~name:"t" ~sets:16 ~ways:4 ~line_bytes:64 in
  let i = ref 0 in
  Alloc.check_zero "Cache.prefetch" (fun () ->
      incr i;
      ignore (Cache.prefetch c (Alloc.scatter (!i / 2))))

let test_btb_no_alloc () =
  let b = Btb.create ~entries:64 ~ways:4 in
  let i = ref 0 in
  Alloc.check_zero "Btb.lookup_class/update" (fun () ->
      incr i;
      (* 200 distinct branches over 64 entries: hits, wrong targets and
         capacity evictions. *)
      let pc = 2 * (!i mod 200) and target = !i mod 3 in
      ignore (Btb.lookup_class b pc ~target);
      Btb.update b pc target);
  Alcotest.(check bool) "some lookups miss" true (Btb.misses b > 0)

let test_core_no_alloc () =
  let core = Core.create () in
  let i = ref 0 in
  Alloc.check_zero "Core.fetch/on_mem/on_cond_branch/below" (fun () ->
      incr i;
      let pc = if !i mod 4 = 0 then Alloc.scatter !i else 0x1000 + (4 * (!i mod 64)) in
      Core.fetch core ~addr:pc ~size:4;
      Core.on_mem core ~addr:(Alloc.scatter (!i * 7));
      Core.on_cond_branch core ~pc ~taken:(!i mod 3 = 0) ~target:(pc + 64);
      if not (Core.below core infinity) then Alcotest.fail "cycles reached infinity");
  let c = Core.snapshot core in
  Alcotest.(check bool) "data misses reached DRAM" true (c.Counters.l2_misses > 0)

let suite =
  [ Alcotest.test_case "cache hit after access" `Quick test_cache_hit_after_access;
    Alcotest.test_case "next-line prefetch rewards sequential" `Quick
      test_next_line_prefetch_rewards_sequential;
    Alcotest.test_case "itlb pressure" `Quick test_itlb_pressure;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache counters and flush" `Quick test_cache_counters_and_flush;
    Alcotest.test_case "cache prefetch silent" `Quick test_cache_prefetch_no_counters;
    Alcotest.test_case "cache prefetch-hit preserves recency" `Quick
      test_cache_prefetch_hit_preserves_recency;
    Alcotest.test_case "cache of_size rejects inexact geometry" `Quick
      test_cache_of_size_rejects_inexact;
    Alcotest.test_case "btb lookup_class matches lookup" `Quick
      test_btb_lookup_class_matches_lookup;
    Alcotest.test_case "ras pop_correct matches pop" `Quick test_ras_pop_correct_matches_pop;
    Alcotest.test_case "cache sizing" `Quick test_cache_sizing;
    Alcotest.test_case "cache invalid args" `Quick test_cache_invalid_args;
    Alcotest.test_case "btb basic" `Quick test_btb;
    Alcotest.test_case "btb capacity pressure" `Quick test_btb_capacity_pressure;
    Alcotest.test_case "predictor learns bias" `Quick test_predictor_learns_bias;
    Alcotest.test_case "predictor learns pattern" `Quick test_predictor_learns_pattern;
    Alcotest.test_case "ras" `Quick test_ras;
    Alcotest.test_case "ras overflow wraps" `Quick test_ras_overflow_wraps;
    Alcotest.test_case "core fetch accounting" `Quick test_core_fetch_accounting;
    Alcotest.test_case "core taken branch costs" `Quick test_core_taken_branch_costs;
    Alcotest.test_case "core not-taken branch free" `Quick test_core_not_taken_branch_free;
    Alcotest.test_case "core ret uses RAS" `Quick test_core_ret_ras;
    Alcotest.test_case "core memory hierarchy" `Quick test_core_mem_hierarchy;
    Alcotest.test_case "topdown sums to one" `Quick test_topdown_sums_to_one;
    Alcotest.test_case "counters diff/add" `Quick test_counters_diff_add;
    Alcotest.test_case "counters mpki" `Quick test_counters_mpki;
    Alcotest.test_case "stall categories" `Quick test_stall_categories;
    Alcotest.test_case "dram burst model" `Quick test_dram_burst_model;
    Alcotest.test_case "cache access allocates nothing" `Quick test_cache_access_no_alloc;
    Alcotest.test_case "cache prefetch allocates nothing" `Quick test_cache_prefetch_no_alloc;
    Alcotest.test_case "btb lookup_class/update allocate nothing" `Quick test_btb_no_alloc;
    Alcotest.test_case "core event path allocates nothing" `Quick test_core_no_alloc ]
