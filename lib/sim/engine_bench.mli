(** Microbenchmark comparing the decoded-block engine against the reference
    interpreter: same workload, input and seed, fixed instruction budget.
    Runs are measured as [repeats] interleaved (reference, blocks) pairs;
    the speedup is the median of the per-pair ratios, reported with its
    interquartile range. Both engines are deterministic, so the final uarch
    counters must be bit-identical; {!compare_engines} verifies that
    alongside the ratio. *)

type engine_sample = {
  wall_s : float;  (** median wall-clock seconds over the repeats *)
  instructions : int;  (** instructions retired in a measured run *)
  ips : float;  (** instructions per wall-clock second at [wall_s] *)
  alloc_words_per_instr : float;
      (** median minor-heap words allocated per instruction retired; a
          deterministic counter, unlike [wall_s] *)
}

type comparison = {
  workload : string;
  input : string;
  instructions : int;
  repeats : int;  (** (reference, blocks) pairs measured *)
  reference : engine_sample;
  blocks : engine_sample;
  speedup : float;  (** median of the per-pair [reference / blocks] wall ratios *)
  q1 : float;  (** first quartile of the per-pair ratios *)
  q3 : float;  (** third quartile of the per-pair ratios *)
  counters_equal : bool;  (** final counters bit-identical in every run *)
}

val default_max_instrs : int
val default_repeats : int

val compare_engines :
  ?repeats:int ->
  ?max_instrs:int ->
  Ocolos_workloads.Workload.t ->
  input:Ocolos_workloads.Input.t ->
  comparison

(** JSON record for [BENCH_engines.json]; the speedup is written as
    [median]. *)
val to_json : comparison -> Ocolos_obs.Json.t
