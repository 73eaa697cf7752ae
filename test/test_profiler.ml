(* Unit tests for the profiling stack: LBR ring, perf sessions, profile
   aggregation and perf2bolt conversion. *)

open Ocolos_workloads

let test_lbr_ring () =
  let l = Ocolos_profiler.Lbr.create () in
  Alcotest.(check int) "empty" 0 (Array.length (Ocolos_profiler.Lbr.snapshot l));
  for i = 1 to 5 do
    Ocolos_profiler.Lbr.record l ~from_addr:i ~to_addr:(i * 10)
  done;
  (* A snapshot is flat: entry [i] is [(s.(2i), s.(2i+1))]. *)
  let s = Ocolos_profiler.Lbr.snapshot l in
  Alcotest.(check int) "five entries" (2 * 5) (Array.length s);
  Alcotest.(check int) "oldest first" 1 s.(0);
  Alcotest.(check int) "oldest target" 10 s.(1);
  Alcotest.(check int) "newest last" 5 s.(2 * 4);
  Alcotest.(check int) "newest target" 50 s.((2 * 4) + 1)

let test_lbr_wraps_at_capacity () =
  let l = Ocolos_profiler.Lbr.create () in
  let cap = Ocolos_profiler.Lbr.capacity in
  for i = 1 to cap + 10 do
    Ocolos_profiler.Lbr.record l ~from_addr:i ~to_addr:i
  done;
  let s = Ocolos_profiler.Lbr.snapshot l in
  Alcotest.(check int) "capped" (2 * cap) (Array.length s);
  Alcotest.(check int) "oldest is 11" 11 s.(0);
  Alcotest.(check int) "newest is cap + 10" (cap + 10) s.((2 * cap) - 2);
  Ocolos_profiler.Lbr.clear l;
  Alcotest.(check int) "cleared" 0 (Array.length (Ocolos_profiler.Lbr.snapshot l))

let test_perf_session_collects () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:100_000.0 proc;
  let samples = Ocolos_profiler.Perf.stop session in
  Alcotest.(check bool) "samples collected" true (List.length samples > 10);
  Alcotest.(check bool) "records in samples" true
    (Ocolos_profiler.Perf.record_count samples > 100);
  (* After stop, the hook is removed: further running adds nothing. *)
  let n = List.length samples in
  Ocolos_proc.Proc.run ~cycle_limit:150_000.0 proc;
  Alcotest.(check int) "no more samples" n (List.length samples)

let test_perf_sampling_period () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let cfg = { Ocolos_profiler.Perf.sample_period = 1000; pmi_overhead = 0.0 } in
  let session = Ocolos_profiler.Perf.start ~cfg proc in
  Ocolos_proc.Proc.run ~cycle_limit:50_000.0 proc;
  let samples = Ocolos_profiler.Perf.stop session in
  (* 2 threads x 50k cycles / 1000-cycle period = ~100 PMIs. *)
  let n = List.length samples in
  Alcotest.(check bool) (Printf.sprintf "roughly period-spaced (%d)" n) true
    (n > 50 && n < 160)

let test_profile_merge () =
  let p1 = Ocolos_profiler.Profile.create () in
  let p2 = Ocolos_profiler.Profile.create () in
  Ocolos_profiler.Profile.add_branch p1 ~from_addr:1 ~to_addr:2 3;
  Ocolos_profiler.Profile.add_branch p2 ~from_addr:1 ~to_addr:2 4;
  Ocolos_profiler.Profile.add_branch p2 ~from_addr:5 ~to_addr:6 1;
  Ocolos_profiler.Profile.add_call p1 ~caller:0 ~callee:1 2;
  let m = Ocolos_profiler.Profile.merge [ p1; p2 ] in
  Alcotest.(check int) "summed" 7 (Ocolos_profiler.Profile.branch_count m (1, 2));
  Alcotest.(check int) "kept" 1 (Ocolos_profiler.Profile.branch_count m (5, 6));
  Alcotest.(check int) "calls kept" 2 (Ocolos_profiler.Profile.call_count m (0, 1));
  Alcotest.(check int) "records summed" (p1.Ocolos_profiler.Profile.total_records
    + p2.Ocolos_profiler.Profile.total_records) m.Ocolos_profiler.Profile.total_records

let test_perf2bolt_against_ground_truth () =
  (* Profile a run while independently counting every taken branch with a
     second hook-level census; perf2bolt's aggregate must be a subsample
     concentrated on the same edges. *)
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let census : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let session = Ocolos_profiler.Perf.start proc in
  (* Chain a second observer after perf's. *)
  let perf_hook = proc.Ocolos_proc.Proc.hooks.on_taken_branch in
  proc.Ocolos_proc.Proc.hooks.on_taken_branch <-
    Some
      (fun ~tid ~from_addr ~to_addr ~kind ->
        (match Hashtbl.find_opt census (from_addr, to_addr) with
        | Some v -> Hashtbl.replace census (from_addr, to_addr) (v + 1)
        | None -> Hashtbl.add census (from_addr, to_addr) 1);
        match perf_hook with Some f -> f ~tid ~from_addr ~to_addr ~kind | None -> ());
  Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
  proc.Ocolos_proc.Proc.hooks.on_taken_branch <- perf_hook;
  let samples = Ocolos_profiler.Perf.stop session in
  let profile = Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary samples in
  (* Every profiled edge must exist in the census. *)
  Hashtbl.iter
    (fun key count ->
      Alcotest.(check bool) "edge is real" true (Hashtbl.mem census key);
      Alcotest.(check bool) "subsample" true (count <= Hashtbl.find census key))
    profile.Ocolos_profiler.Profile.branches;
  (* Heavily-executed edges should be captured. *)
  let hot_edges =
    Hashtbl.fold (fun k v acc -> if v > 500 then k :: acc else acc) census []
  in
  let captured =
    List.filter (fun k -> Ocolos_profiler.Profile.branch_count profile k > 0) hot_edges
  in
  Alcotest.(check bool) "most hot edges captured" true
    (List.length captured * 10 >= List.length hot_edges * 8)

let test_perf2bolt_call_edges () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let session = Ocolos_profiler.Perf.start proc in
  Ocolos_proc.Proc.run ~cycle_limit:200_000.0 proc;
  let samples = Ocolos_profiler.Perf.stop session in
  let profile = Ocolos_profiler.Perf2bolt.convert ~binary:w.Workload.binary samples in
  Alcotest.(check bool) "call graph non-empty" true
    (Hashtbl.length profile.Ocolos_profiler.Profile.calls > 0);
  (* main calls the parser on every transaction: that edge must be seen. *)
  (match w.Workload.gen.Gen.parser_fid with
  | Some pf ->
    Alcotest.(check bool) "main->parser edge" true
      (Ocolos_profiler.Profile.call_count profile (w.Workload.gen.Gen.main_fid, pf) > 0)
  | None -> ())

let test_topdown_check () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch w ~input in
  let before = Ocolos_proc.Proc.total_counters proc in
  Ocolos_proc.Proc.run ~cycle_limit:100_000.0 proc;
  let after = Ocolos_proc.Proc.total_counters proc in
  let v = Ocolos_profiler.Topdown_check.analyze ~before ~after () in
  let fe, ret = Ocolos_profiler.Topdown_check.features v in
  Alcotest.(check bool) "features in range" true
    (fe >= 0.0 && fe <= 1.0 && ret >= 0.0 && ret <= 1.0);
  Alcotest.(check bool) "interval instrs positive" true
    (v.Ocolos_profiler.Topdown_check.interval.Ocolos_uarch.Counters.instructions > 0)

(* ---- profile equivalence: staged perf2bolt vs the tuple-keyed converter ---- *)

module Binary = Ocolos_binary.Binary
module Perf = Ocolos_profiler.Perf
module Perf2bolt = Ocolos_profiler.Perf2bolt
module Profile = Ocolos_profiler.Profile

(* The converter as it was before staged aggregation, kept as an oracle:
   every record bumps the [Profile] tables directly through tuple keys and
   option-returning lookups. Only the batch access is adapted to the flat
   snapshot. *)
let reference_convert ~(binary : Binary.t) (samples : Perf.sample list) =
  let profile = Profile.create () in
  let index = Binary.build_addr_index binary in
  let fid_of addr = match Binary.index_lookup index addr with -1 -> None | f -> Some f in
  let entry_of_fid = Hashtbl.create 256 in
  Array.iter
    (fun s -> Hashtbl.replace entry_of_fid s.Binary.fs_entry s.Binary.fs_fid)
    binary.Binary.symbols;
  List.iter
    (fun (s : Perf.sample) ->
      let e = s.Perf.entries in
      let n = Array.length e / 2 in
      for i = 0 to n - 1 do
        let from_addr = e.(2 * i) and to_addr = e.((2 * i) + 1) in
        Profile.add_branch profile ~from_addr ~to_addr 1;
        let fid_from = fid_of from_addr and fid_to = fid_of to_addr in
        (match fid_from with Some f -> Profile.add_func_record profile f 1 | None -> ());
        (match fid_to with
        | Some f when fid_from <> Some f -> Profile.add_func_record profile f 1
        | Some _ | None -> ());
        (match (fid_from, fid_to) with
        | Some caller, Some callee ->
          let is_call =
            match Binary.find_instr binary from_addr with
            | Some (Ocolos_isa.Instr.Call _) | Some (Ocolos_isa.Instr.CallInd _) -> true
            | Some _ -> false
            | None -> Hashtbl.mem entry_of_fid to_addr && caller <> callee
          in
          if is_call then Profile.add_call profile ~caller ~callee 1
        | _, _ -> ());
        if i + 1 < n then begin
          let range_start = to_addr and range_end = e.(2 * (i + 1)) in
          if range_start <= range_end then
            match (fid_of range_start, fid_of range_end) with
            | Some f1, Some f2 when f1 = f2 ->
              Profile.add_range profile ~start_addr:range_start ~end_addr:range_end 1
            | _, _ -> ()
        end
      done)
    samples;
  profile

(* Binding lists in [Hashtbl.fold] order: equal lists mean equal contents
   and equal iteration order, which is what BOLT's output depends on. *)
let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let check_same_profile what (expected : Profile.t) (got : Profile.t) =
  let pairs = Alcotest.(list (pair (pair int int) int)) in
  Alcotest.check pairs (what ^ ": branches") (bindings expected.Profile.branches)
    (bindings got.Profile.branches);
  Alcotest.check pairs (what ^ ": ranges") (bindings expected.Profile.ranges)
    (bindings got.Profile.ranges);
  Alcotest.check pairs (what ^ ": calls") (bindings expected.Profile.calls)
    (bindings got.Profile.calls);
  Alcotest.(check (list (pair int int))) (what ^ ": func_records")
    (bindings expected.Profile.func_records) (bindings got.Profile.func_records);
  Alcotest.(check int) (what ^ ": total_records") expected.Profile.total_records
    got.Profile.total_records

let horizon s = Ocolos_sim.Clock.seconds_to_cycles s

(* Sample [w] on [input] for [seconds] of simulated time after a short
   warm-up, optionally under a perf fault schedule. *)
let sample_app ?fault ?(warmup = 0.05) ~seconds w input =
  let proc = Workload.launch w ~input:(Workload.find_input w input) in
  Ocolos_proc.Proc.run ~cycle_limit:(horizon warmup) proc;
  let session = Perf.start ?fault proc in
  Ocolos_proc.Proc.run ~cycle_limit:(horizon (warmup +. seconds)) proc;
  Perf.stop session

let test_profile_equivalence_apps () =
  List.iter
    (fun (name, w, input) ->
      let samples = sample_app ~seconds:0.1 w input in
      Alcotest.(check bool) (name ^ ": sampled") true (Perf.record_count samples > 1_000);
      let binary = w.Workload.binary in
      check_same_profile name (reference_convert ~binary samples)
        (Perf2bolt.convert ~binary samples))
    [ ("memcached", Apps.memcached_like (), "set10_get90");
      ("mysql", Apps.mysql_like (), "read_only");
      ("verilator", Apps.verilator_like (), "dhrystone") ]

(* Truncated and corrupted batches: corrupted addresses resolve to no
   symbol, truncated ones shorten the fallthrough chains. *)
let test_profile_equivalence_degraded () =
  let w = Apps.memcached_like () in
  let fault = Ocolos_util.Fault.create ~seed:3 () in
  Ocolos_util.Fault.arm fault "perf.sample_truncate" (Ocolos_util.Fault.Every 3);
  Ocolos_util.Fault.arm fault "perf.sample_corrupt" (Ocolos_util.Fault.Every 4);
  let samples = sample_app ~fault ~seconds:0.05 w "set10_get90" in
  let full = 2 * Ocolos_profiler.Lbr.capacity in
  Alcotest.(check bool) "some batches truncated" true
    (List.exists (fun (s : Perf.sample) -> Array.length s.Perf.entries < full) samples);
  let binary = w.Workload.binary in
  check_same_profile "degraded" (reference_convert ~binary samples)
    (Perf2bolt.convert ~binary samples)

(* Three replicas' decimated streams aggregated by [convert_sources]. *)
let test_profile_equivalence_sources () =
  let w = Apps.memcached_like () in
  let samples = sample_app ~seconds:0.05 w "set10_get90" in
  let sources = List.init 3 (fun phase -> Perf2bolt.decimate ~keep_every:3 ~phase samples) in
  let binary = w.Workload.binary in
  check_same_profile "3 replicas" (reference_convert ~binary (List.concat sources))
    (Perf2bolt.convert_sources ~binary sources)

(* Pair keys are packed into one int: an address outside the packing
   range is refused, not folded into another key. *)
let test_perf2bolt_rejects_wide_address () =
  let w = Apps.tiny ~tx_limit:None () in
  let sample = { Perf.s_tid = 0; entries = [| 1 lsl 40; 0x100 |] } in
  match Perf2bolt.convert ~binary:w.Workload.binary [ sample ] with
  | _ -> Alcotest.fail "a 41-bit address was accepted"
  | exception Invalid_argument _ -> ()

(* ---- allocation: the profiling path is allocation-free per event ---- *)

let test_lbr_record_alloc () =
  let l = Ocolos_profiler.Lbr.create () in
  let i = ref 0 in
  Alloc.check_zero "Lbr.record" (fun () ->
      incr i;
      Ocolos_profiler.Lbr.record l ~from_addr:!i ~to_addr:(!i + 7))

(* A memcached window with perf attached, after the campaign warm-up. What
   remains is the per-PMI snapshot (a 64-int batch, its sample record and
   list cell every [sample_period] cycles); a boxed float or an entry
   record per taken branch fails the bound. *)
let perf_window_bound = 0.2

let test_perf_window_alloc () =
  let w = Apps.memcached_like () in
  let proc = Workload.launch w ~input:(Workload.find_input w "set10_get90") in
  Ocolos_proc.Proc.run ~cycle_limit:(horizon 0.6) proc;
  let session = Perf.start proc in
  let i0 = proc.Ocolos_proc.Proc.instret in
  let w0 = Gc.minor_words () in
  Ocolos_proc.Proc.run ~cycle_limit:(horizon 0.8) proc;
  let words = Gc.minor_words () -. w0 in
  let instrs = proc.Ocolos_proc.Proc.instret - i0 in
  ignore (Perf.stop session);
  Alcotest.(check bool) "window ran" true (instrs > 500_000);
  let per_instr = words /. float_of_int instrs in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words/instr < %.2f" per_instr perf_window_bound)
    true (per_instr < perf_window_bound)

(* Total words (minor + major - promoted, so arrays allocated straight on
   the major heap count too) per LBR record converted. The window is long
   enough (~80k records) that the per-convert fixed cost — address index,
   staging tables, the output profile — is a fraction of a word per
   record; a tuple key or option per record fails the bound. *)
let test_perf2bolt_alloc () =
  let w = Apps.memcached_like () in
  let samples = sample_app ~seconds:0.4 w "set10_get90" in
  let binary = w.Workload.binary in
  ignore (Perf2bolt.convert ~binary samples);
  let total () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = total () in
  ignore (Perf2bolt.convert ~binary samples);
  let words = total () -. w0 in
  let records = Perf.record_count samples in
  let per_record = words /. float_of_int records in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f words/record < 1 (%d records)" per_record records)
    true (per_record < 1.0)

let suite =
  [ Alcotest.test_case "lbr ring" `Quick test_lbr_ring;
    Alcotest.test_case "lbr wraps" `Quick test_lbr_wraps_at_capacity;
    Alcotest.test_case "perf session collects" `Quick test_perf_session_collects;
    Alcotest.test_case "perf sampling period" `Quick test_perf_sampling_period;
    Alcotest.test_case "profile merge" `Quick test_profile_merge;
    Alcotest.test_case "perf2bolt vs ground truth" `Quick test_perf2bolt_against_ground_truth;
    Alcotest.test_case "perf2bolt call edges" `Quick test_perf2bolt_call_edges;
    Alcotest.test_case "topdown check" `Quick test_topdown_check;
    Alcotest.test_case "perf2bolt = reference: memcached, mysql, verilator" `Quick
      test_profile_equivalence_apps;
    Alcotest.test_case "perf2bolt = reference: truncated/corrupted batches" `Quick
      test_profile_equivalence_degraded;
    Alcotest.test_case "perf2bolt = reference: 3-replica convert_sources" `Quick
      test_profile_equivalence_sources;
    Alcotest.test_case "perf2bolt rejects unpackable addresses" `Quick
      test_perf2bolt_rejects_wide_address;
    Alcotest.test_case "Lbr.record allocates nothing" `Quick test_lbr_record_alloc;
    Alcotest.test_case "perf window allocation bounded" `Quick test_perf_window_alloc;
    Alcotest.test_case "perf2bolt < 1 word per record" `Quick test_perf2bolt_alloc ]
