(* Execution-engine microbenchmark: reference interpreter vs decoded-block
   engine.

   Two microbenchmarks run by default — `branchy` (tiny blocks, dispatch
   bound: the block engine's worst case) and `straightline` (long blocks:
   the case block decoding exists for) — plus, when OCOLOS_BENCH_APP is
   set, one of the paper's app workloads. Emits BENCH_engines.json with the
   median blocks/reference speedup over interleaved paired runs and its
   interquartile range, plus each engine's minor-heap words allocated per
   instruction. Exits non-zero if any run's final counters diverge, if the
   median speedup is below 1.0, or if the block engine allocates more than
   [max_blocks_alloc] words per instruction — the regressions CI's
   bench-smoke job keys on. The allocation gate is a deterministic counter,
   so its margin does not depend on host noise.

   Meaningful numbers need the release profile (`dune exec --profile
   release ...`): the dev profile compiles with -opaque, which turns every
   cross-module call into a generic caml_apply and disables the inlining
   the hot paths are written for. *)

open Ocolos_workloads
module Engine_bench = Ocolos_sim.Engine_bench

let output = "BENCH_engines.json"

(* The per-instruction path allocates nothing; what remains is per-dispatch
   and per-quantum bookkeeping, a fraction of a word per instruction. *)
let max_blocks_alloc = 1.0

let bench w =
  let input = List.hd w.Workload.inputs in
  Common.progress "engines: %s/%s, %d instrs x %d (reference, blocks) pairs"
    w.Workload.name input.Input.name Engine_bench.default_max_instrs
    Engine_bench.default_repeats;
  let c = Engine_bench.compare_engines w ~input in
  Printf.printf "engine throughput (%s/%s, %d instructions, %d pairs):\n"
    c.Engine_bench.workload c.Engine_bench.input c.Engine_bench.instructions
    c.Engine_bench.repeats;
  Printf.printf "  reference  %8.0f kinstr/s  (median %.3f s)  %.2f words/instr\n"
    (c.Engine_bench.reference.Engine_bench.ips /. 1e3)
    c.Engine_bench.reference.Engine_bench.wall_s
    c.Engine_bench.reference.Engine_bench.alloc_words_per_instr;
  Printf.printf
    "  blocks     %8.0f kinstr/s  (median %.3f s)  %.2f words/instr  %.2fx  (IQR %.2f-%.2fx)\n"
    (c.Engine_bench.blocks.Engine_bench.ips /. 1e3)
    c.Engine_bench.blocks.Engine_bench.wall_s
    c.Engine_bench.blocks.Engine_bench.alloc_words_per_instr c.Engine_bench.speedup
    c.Engine_bench.q1 c.Engine_bench.q3;
  Printf.printf "  counters_equal=%b\n%!" c.Engine_bench.counters_equal;
  c

let run () =
  let workloads =
    [ Lazy.force Common.branchy; Lazy.force Common.straightline ]
    @
    match Sys.getenv_opt "OCOLOS_BENCH_APP" with
    | Some "verilator" -> [ Lazy.force Common.verilator ]
    | Some "memcached" -> [ Lazy.force Common.memcached ]
    | Some "mongodb" -> [ Lazy.force Common.mongodb ]
    | Some "mysql" -> [ Lazy.force Common.mysql ]
    | _ -> []
  in
  let results = List.map bench workloads in
  let oc = open_out output in
  output_string oc
    (Ocolos_obs.Json.to_string (Ocolos_obs.Json.List (List.map Engine_bench.to_json results)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" output;
  List.iter
    (fun c ->
      if not c.Engine_bench.counters_equal then begin
        Printf.eprintf "FAIL: engines disagree on final counters (%s)\n"
          c.Engine_bench.workload;
        exit 2
      end;
      let alloc = c.Engine_bench.blocks.Engine_bench.alloc_words_per_instr in
      if alloc > max_blocks_alloc then begin
        Printf.eprintf "FAIL: block engine allocates %.2f words/instr on %s (budget %.1f)\n"
          alloc c.Engine_bench.workload max_blocks_alloc;
        exit 3
      end;
      if c.Engine_bench.speedup < 1.0 then begin
        Printf.eprintf "FAIL: block engine slower than reference on %s (median %.2fx)\n"
          c.Engine_bench.workload c.Engine_bench.speedup;
        exit 1
      end)
    results
