(* Microbenchmark comparing the decoded-block engine against the reference
   interpreter.

   Each measurement launches a fresh process (same binary, input and seed),
   runs exactly [max_instrs] instructions under one engine, and times it.
   Runs come in (reference, blocks) pairs, interleaved so ambient machine
   load perturbs both halves of a pair alike; the order inside a pair
   alternates so neither engine always runs on the heap the other left
   behind. Each pair yields one speedup ratio, and the comparison reports
   the median ratio with its interquartile range — a point estimate that a
   single noisy pair cannot move, unlike a best-of-N ratio. Both engines
   are deterministic over the same workload and seed, so the final uarch
   counters must match bit for bit; [compare_engines] checks that too. *)

open Ocolos_workloads
module Stats = Ocolos_util.Stats

type engine_sample = {
  wall_s : float; (* median wall time over the repeats *)
  instructions : int; (* instructions retired in a measured run *)
  ips : float; (* instructions / wall_s *)
}

type comparison = {
  workload : string;
  input : string;
  instructions : int;
  repeats : int; (* (reference, blocks) pairs measured *)
  reference : engine_sample;
  blocks : engine_sample;
  speedup : float; (* median of per-pair reference_wall / blocks_wall *)
  q1 : float; (* first quartile of the per-pair speedups *)
  q3 : float; (* third quartile of the per-pair speedups *)
  counters_equal : bool; (* final Counters.t bit-identical in every run *)
}

let default_max_instrs = 8_000_000
let default_repeats = 10

(* One measured run: fresh process, [max_instrs] instructions, no cycle
   horizon (the instruction budget is the stopping condition). The major
   heap is collected first so every run starts from the same GC state. *)
let run_once ~engine ~max_instrs w ~input =
  let proc = Workload.launch w ~input in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  Ocolos_proc.Proc.run proc ~engine ~max_instrs ~cycle_limit:infinity;
  let wall = Float.max (Unix.gettimeofday () -. t0) 1e-9 in
  (wall, proc.Ocolos_proc.Proc.instret, Ocolos_proc.Proc.total_counters proc)

let sample walls instructions =
  let wall_s = Stats.median walls in
  { wall_s; instructions; ips = float_of_int instructions /. wall_s }

let compare_engines ?(repeats = default_repeats) ?(max_instrs = default_max_instrs) w
    ~input =
  let repeats = max 1 repeats in
  let ref_walls = Array.make repeats 0.0 and blk_walls = Array.make repeats 0.0 in
  let first = ref None and instructions = ref 0 and counters_equal = ref true in
  let measure engine walls i =
    let wall, instret, c = run_once ~engine ~max_instrs w ~input in
    walls.(i) <- wall;
    instructions := instret;
    match !first with
    | None -> first := Some (instret, c)
    | Some r -> if r <> (instret, c) then counters_equal := false
  in
  for i = 0 to repeats - 1 do
    if i mod 2 = 0 then begin
      measure `Reference ref_walls i;
      measure `Blocks blk_walls i
    end
    else begin
      measure `Blocks blk_walls i;
      measure `Reference ref_walls i
    end
  done;
  let ratios = Array.init repeats (fun i -> ref_walls.(i) /. blk_walls.(i)) in
  { workload = w.Workload.name;
    input = input.Input.name;
    instructions = !instructions;
    repeats;
    reference = sample ref_walls !instructions;
    blocks = sample blk_walls !instructions;
    speedup = Stats.median ratios;
    q1 = Stats.percentile ratios 25.0;
    q3 = Stats.percentile ratios 75.0;
    counters_equal = !counters_equal }

let sample_to_json s =
  Ocolos_obs.Json.Obj
    [ ("wall_s", Ocolos_obs.Json.Float s.wall_s);
      ("instructions", Ocolos_obs.Json.Int s.instructions);
      ("ips", Ocolos_obs.Json.Float s.ips) ]

let to_json c =
  Ocolos_obs.Json.Obj
    [ ("bench", Ocolos_obs.Json.String "engine_throughput");
      ("workload", Ocolos_obs.Json.String c.workload);
      ("input", Ocolos_obs.Json.String c.input);
      ("instructions", Ocolos_obs.Json.Int c.instructions);
      ("repeats", Ocolos_obs.Json.Int c.repeats);
      ("reference", sample_to_json c.reference);
      ("blocks", sample_to_json c.blocks);
      ("median", Ocolos_obs.Json.Float c.speedup);
      ("q1", Ocolos_obs.Json.Float c.q1);
      ("q3", Ocolos_obs.Json.Float c.q3);
      ("counters_equal", Ocolos_obs.Json.Bool c.counters_equal) ]
