(* Tests for the measurement drivers. *)

open Ocolos_workloads
module Measure = Ocolos_sim.Measure
module Timeline = Ocolos_sim.Timeline
module Clock = Ocolos_sim.Clock

let test_clock_roundtrip () =
  Alcotest.(check (float 1e-9)) "roundtrip" 2.5
    (Clock.cycles_to_seconds (Clock.seconds_to_cycles 2.5))

let test_steady_measurement () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let s = Measure.steady ~warmup:0.05 ~measure:0.2 w ~input in
  Alcotest.(check bool) "tps positive" true (s.Measure.tps > 0.0);
  Alcotest.(check bool) "instrs counted" true
    (s.Measure.counters.Ocolos_uarch.Counters.instructions > 0);
  let td = s.Measure.topdown in
  Alcotest.(check bool) "topdown normalized" true
    (td.Ocolos_uarch.Counters.retiring > 0.0 && td.Ocolos_uarch.Counters.retiring <= 1.0)

let test_steady_deterministic () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let a = Measure.steady ~warmup:0.05 ~measure:0.2 w ~input in
  let b = Measure.steady ~warmup:0.05 ~measure:0.2 w ~input in
  Alcotest.(check (float 1e-9)) "same tps" a.Measure.tps b.Measure.tps

let test_ocolos_steady_improves_tiny () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let base = Measure.steady ~warmup:0.1 ~measure:0.3 w ~input in
  let r = Measure.ocolos_steady ~warmup:0.1 ~profile_s:0.2 ~measure:0.3 w ~input in
  Alcotest.(check bool) "replacement happened" true
    (r.Measure.stats.Ocolos_core.Ocolos.version = 1);
  Alcotest.(check bool)
    (Printf.sprintf "ocolos >= 0.9x original (%.0f vs %.0f)" r.Measure.post.Measure.tps
       base.Measure.tps)
    true
    (r.Measure.post.Measure.tps >= 0.9 *. base.Measure.tps)

let test_timeline_regions () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let t = Timeline.run ~warmup_s:2 ~profile_s:1 ~post_s:2 w ~input in
  let regions = List.map (fun p -> p.Timeline.region) t.Timeline.points in
  Alcotest.(check bool) "has warmup" true (List.mem Timeline.Warmup regions);
  Alcotest.(check bool) "has profiling" true (List.mem Timeline.Profiling regions);
  Alcotest.(check bool) "has background" true (List.mem Timeline.Background regions);
  Alcotest.(check bool) "has pause" true (List.mem Timeline.Pause regions);
  Alcotest.(check bool) "has optimized" true (List.mem Timeline.Optimized regions);
  (* Seconds are consecutive from 0. *)
  List.iteri
    (fun i p -> Alcotest.(check int) "second index" i p.Timeline.second)
    t.Timeline.points;
  (* Optimized region beats warmup on average. *)
  let avg r =
    let xs = List.filter (fun p -> p.Timeline.region = r) t.Timeline.points in
    List.fold_left (fun a p -> a +. p.Timeline.tps) 0.0 xs /. float_of_int (List.length xs)
  in
  Alcotest.(check bool) "optimized faster than warmup" true
    (avg Timeline.Optimized > avg Timeline.Warmup);
  (* p95 latency spikes in the pause window. *)
  let pause_p95 =
    List.find (fun p -> p.Timeline.region = Timeline.Pause) t.Timeline.points
  in
  Alcotest.(check bool) "pause p95 positive" true (pause_p95.Timeline.p95_ms > 0.0)

let test_rss_model () =
  let w = Apps.tiny () in
  let input = Workload.find_input w "a" in
  let base = Ocolos_sim.Rss.of_binary ~nthreads:2 w.Workload.binary ~input in
  Alcotest.(check bool) "baseline positive" true (base > 0);
  let stats =
    { Ocolos_core.Ocolos.version = 1;
      vtable_entries_patched = 3;
      call_sites_patched = 10;
      stack_live_funcs = 4;
      frames_migrated = 6;
      copied_funcs = 0;
      funcs_optimized = 5;
      code_bytes_injected = 5000;
      gc_bytes_freed = 0;
      pause_seconds = 0.01 }
  in
  let oc =
    Ocolos_sim.Rss.ocolos ~nthreads:2 w.Workload.binary ~input ~stats ~profile_records:1000
      ~bolt_work_instrs:2000
  in
  Alcotest.(check bool) "ocolos adds memory" true (oc > base);
  let oc_drain =
    Ocolos_sim.Rss.ocolos ~nthreads:2 ~resident_extra:4096 w.Workload.binary ~input ~stats
      ~profile_records:1000 ~bolt_work_instrs:2000
  in
  Alcotest.(check int) "drain-window residue counted in the peak" (oc + 4096) oc_drain;
  Alcotest.(check bool) "mib conversion" true (Ocolos_sim.Rss.mib (1 lsl 20) = 1.0)

let suite =
  [ Alcotest.test_case "clock roundtrip" `Quick test_clock_roundtrip;
    Alcotest.test_case "steady measurement" `Quick test_steady_measurement;
    Alcotest.test_case "steady deterministic" `Quick test_steady_deterministic;
    Alcotest.test_case "ocolos steady improves tiny" `Slow test_ocolos_steady_improves_tiny;
    Alcotest.test_case "timeline regions" `Slow test_timeline_regions;
    Alcotest.test_case "rss model" `Quick test_rss_model ]
