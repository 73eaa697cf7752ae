(* Campaign benchmark: host cost and simulated outcome of full online OCOLOS
   campaigns, run back to back on freshly launched processes.

   One campaign makes the same public calls the Daemon makes, in the same
   order, with the simulated windows of Measure.ocolos_steady:

     Workload.launch ~seed -> Ocolos.attach -> Proc.run (0.6 s warm-up)
     -> Ocolos.start_profiling -> Proc.run (2.0 s profile)
     -> Ocolos.stop_profiling -> Ocolos.run_bolt -> Ocolos.validate_result
     -> Proc.run (background, <= 1.5 s) -> Shadow.prepare
     -> Txn.replace_code ~verify:(Shadow.arm |> Shadow.check)
     -> Proc.run (2.0 s measure)

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 no call is timed individually and the end-to-end metrics
   are printed. With --trace 1 the benchmark records a host-clock span
   around every call above, writes them as Chrome trace-event JSON under
   campaign_bench/out/, and prints the per-layer table. The library's own
   simulated-clock recorders (Ocolos_obs.Trace / Metrics / Events) are
   never installed, so that channel stays byte-deterministic.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. See README.md. *)

open Ocolos_workloads
module Proc = Ocolos_proc.Proc
module Thread = Ocolos_proc.Thread
module Ocolos = Ocolos_core.Ocolos
module Txn = Ocolos_core.Txn
module Shadow = Ocolos_core.Shadow
module Bolt = Ocolos_bolt.Bolt
module Validate = Ocolos_bolt.Validate
module Counters = Ocolos_uarch.Counters
module Clock = Ocolos_sim.Clock
module Json = Ocolos_obs.Json

(* Simulated windows, as in Measure.ocolos_steady. *)
let warmup_s = 0.6
let profile_s = 2.0
let background_max_s = 1.5
let measure_s = 2.0

(* Set-up is repeated and its median reported: 3 builds before the first
   campaign, then at least one build and 0.2 s of building after each
   campaign. Host speed drifts over tens of seconds on a shared machine;
   building throughout the run samples the whole of it. The first count is
   fixed because the garbage of those builds shapes peak_heap_mb. *)
let setup_first = (3, 0.0)
let setup_between = (1, 0.2)

let now = Unix.gettimeofday

(* ---------- spans (host clock, benchmark-owned) ---------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  campaign : int;  (** -1 outside any campaign (set-up) *)
  t0 : float;
  mutable t1 : float;
  w0 : float;  (** Gc.minor_words at entry *)
  mutable w1 : float;
  mutable args : (string * float) list;  (** counts taken at the boundary *)
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let cur_campaign = ref (-1)

(* The layer a span belongs to is its name up to the first dot. *)
let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let w0 = Gc.minor_words () in
    let s =
      { id = !next_id; name; parent; campaign = !cur_campaign; t0 = now (); t1 = 0.0; w0;
        w1 = 0.0; args = [] }
    in
    incr next_id;
    open_spans := s :: !open_spans;
    let close () =
      s.t1 <- now ();
      s.w1 <- Gc.minor_words ();
      open_spans := List.tl !open_spans;
      spans := s :: !spans
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

(* Attach a count to the innermost open span (no-op with spans off). *)
let note key v =
  match !open_spans with s :: _ -> s.args <- (key, v) :: s.args | [] -> ()

let children_time s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc +. (c.t1 -. c.t0) else acc)
    0.0 !spans

let self_time s = s.t1 -. s.t0 -. children_time s

let chrome_json () =
  let t_origin =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans
  in
  let us t = Json.Float ((t -. t_origin) *. 1e6) in
  let event s =
    Json.Obj
      [ ("name", Json.String s.name);
        ("cat", Json.String (layer_of s.name));
        ("ph", Json.String "X");
        ("ts", us s.t0);
        ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            ([ ("span", Json.Int s.id);
               ("parent", Json.Int s.parent);
               ("campaign", Json.Int s.campaign);
               ("minor_words_start", Json.Float s.w0);
               ("minor_words_end", Json.Float s.w1);
               ("self_us", Json.Float (self_time s *. 1e6)) ]
            @ List.rev_map (fun (k, v) -> (k, Json.Float v)) s.args) ) ]
  in
  let sorted = List.sort (fun a b -> compare a.id b.id) !spans in
  Json.Obj
    [ ("traceEvents", Json.List (List.map event sorted)); ("displayTimeUnit", Json.String "ms") ]

(* ---------- workloads ---------- *)

type app = {
  label : string;
  build : unit -> Workload.t;
  input : string;
  drift_to : string option;  (** second-round input, after Workload.set_input *)
  why : string;
}

let apps =
  [ { label = "kv_campaign";
      build = (fun () -> Apps.memcached_like ());
      input = "set10_get90";
      drift_to = None;
      why = "memcached analog: small code, the engine (proc) dominates host time" };
    { label = "kernel_campaign";
      build = (fun () -> Apps.verilator_like ());
      input = "dhrystone";
      drift_to = None;
      why = "verilator analog: one huge kernel, BOLT/validate/txn do most of the work" };
    { label = "oltp_drift";
      build = (fun () -> Apps.mysql_like ());
      input = "read_only";
      drift_to = Some "write_only";
      why = "mysql analog: input drifts, round 2 replaces C1 with C2 and retires C1" } ]

(* ---------- one campaign ---------- *)

exception Campaign_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Campaign_failed s)) fmt

type outcome = {
  post_tps : float;
  pause_s : float;  (** modeled stop-the-world, summed over commits *)
  optimize_s : float;  (** modeled perf2bolt + BOLT, summed over rounds *)
  digest : string;
  engine : string;
  version : int;
  counts : (string * float) list;  (** per-layer counts, summed over rounds *)
}

(* The engine Proc.run used, found from the cache it created, and that
   cache's decodes, dispatches and invalidations. *)
let engine_stats (proc : Proc.t) =
  match (Proc.trace_cache_stats proc, Proc.code_cache_stats proc) with
  | Some s, _ -> ("traces", Ocolos_proc.Superblock.(s.decodes, s.dispatches, s.invalidations))
  | None, Some s ->
    ("blocks", Ocolos_proc.Block_engine.(s.decodes, s.dispatches, s.invalidations))
  | None, None -> ("reference", (0, 0, 0))

let instructions proc = (Proc.total_counters proc).Counters.instructions

let campaign ~seed (app : app) (w : Workload.t) =
  let counts = Hashtbl.create 32 in
  let count k v =
    Hashtbl.replace counts k (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts k))
  in
  let cost = Ocolos.default_config.Ocolos.cost in
  let proc =
    span "workloads.launch" (fun () ->
        Workload.launch ~seed w ~input:(Workload.find_input w app.input))
  in
  let oc = span "ocolos.attach" (fun () -> Ocolos.attach proc) in
  let horizon = ref 0.0 in
  let run window seconds =
    horizon := !horizon +. seconds;
    span ("proc.run." ^ window) (fun () ->
        let i0 = instructions proc in
        Proc.run ~cycle_limit:(Clock.seconds_to_cycles !horizon) proc;
        note "instructions" (float_of_int (instructions proc - i0)))
  in
  let stall seconds =
    span "proc.stall_all" (fun () ->
        Proc.stall_all proc ~cycles:(Clock.seconds_to_cycles seconds) ~category:`Backend)
  in
  let pause = ref 0.0 and optimize = ref 0.0 in
  let round () =
    span "profiler.start_profiling" (fun () -> Ocolos.start_profiling oc);
    run "profile" profile_s;
    let profile, perf2bolt_s =
      span "profiler.stop_profiling" (fun () -> Ocolos.stop_profiling oc)
    in
    count "profiler.records" (float_of_int profile.Ocolos_profiler.Profile.total_records);
    let result, bolt_s = span "bolt.run_bolt" (fun () -> Ocolos.run_bolt oc profile) in
    count "bolt.work_instrs" (float_of_int result.Bolt.work_instrs);
    count "bolt.funcs_reordered" (float_of_int result.Bolt.funcs_reordered);
    count "bolt.skipped" (float_of_int result.Bolt.skipped);
    optimize := !optimize +. perf2bolt_s +. bolt_s;
    let report = span "validate.validate_result" (fun () -> Ocolos.validate_result oc result) in
    count "validate.instrs" (float_of_int report.Validate.rp_instrs);
    count "validate.rejects" (float_of_int (List.length report.Validate.rp_rejections));
    if not (Validate.ok report) then
      fail "validation rejected %d functions" (List.length (Validate.rejected_fids report));
    (* Background perf2bolt + BOLT compete with the target; only a bounded
       slice is simulated and its contention stall charged, as in
       Measure.ocolos_steady. *)
    let bg = Float.min (perf2bolt_s +. bolt_s) background_max_s in
    run "background" bg;
    stall (bg *. cost.Ocolos_core.Cost.background_contention);
    let pre = span "shadow.prepare" (fun () -> Shadow.prepare oc) in
    let verdict = ref None in
    let verify () =
      let v = span "shadow.check" (fun () -> Shadow.check (Shadow.arm pre oc result)) in
      verdict := Some v;
      match v with Shadow.Match -> Ok () | Shadow.Divergence why -> Error why
    in
    let outcome = span "txn.replace_code" (fun () -> Txn.replace_code ~verify oc result) in
    count "txn.attempts" 1.0;
    let stats =
      match outcome with
      | Txn.Committed stats -> stats
      | o -> fail "replacement not committed: %s" (Fmt.str "%a" Txn.pp_outcome o)
    in
    if !verdict <> Some Shadow.Match then fail "committed without a shadow match";
    count "txn.commits" 1.0;
    count "txn.sites_patched"
      (float_of_int (stats.Ocolos.call_sites_patched + stats.Ocolos.vtable_entries_patched));
    count "txn.frames_migrated" (float_of_int stats.Ocolos.frames_migrated);
    count "txn.code_bytes_injected" (float_of_int stats.Ocolos.code_bytes_injected);
    count "txn.gc_bytes_freed" (float_of_int stats.Ocolos.gc_bytes_freed);
    pause := !pause +. stats.Ocolos.pause_seconds;
    stall stats.Ocolos.pause_seconds;
    (* Re-anchor after the stalls so the next window is full length. *)
    horizon := Float.max !horizon (Clock.cycles_to_seconds (Proc.max_cycles proc))
  in
  run "warmup" warmup_s;
  round ();
  (match app.drift_to with
  | None -> ()
  | Some input ->
    span "workloads.set_input" (fun () ->
        Workload.set_input w proc (Workload.find_input w input));
    round ();
    (* Round 2 retired C1's text: audit every code pointer in the process. *)
    span "ocolos.verify_no_dangling" (fun () -> Ocolos.verify_no_dangling oc ~freed:[]));
  let before = Proc.total_counters proc in
  run "measure" measure_s;
  let post = Counters.diff (Proc.total_counters proc) before in
  Array.iter
    (fun (t : Thread.t) ->
      match t.Thread.state with
      | Thread.Faulted why -> fail "thread %d faulted: %s" t.Thread.tid why
      | Thread.Running | Thread.Halted -> ())
    proc.Proc.threads;
  if not (Proc.validate_code_cache proc) then fail "engine code cache incoherent";
  let engine, (decodes, dispatches, invalidations) = engine_stats proc in
  count "proc.decodes" (float_of_int decodes);
  count "proc.invalidations" (float_of_int invalidations);
  count "proc.dispatches" (float_of_int dispatches);
  count "proc.instructions" (float_of_int proc.Proc.instret);
  let digest =
    let fields =
      [ string_of_int post.Counters.transactions;
        string_of_int post.Counters.instructions;
        Printf.sprintf "%h" post.Counters.cycles;
        string_of_int post.Counters.l1i_misses;
        string_of_int post.Counters.mispredicts;
        Printf.sprintf "%h" !pause;
        string_of_int (Ocolos.version oc) ]
      @ List.map string_of_int (Workload.checksums proc)
    in
    String.sub (Digest.to_hex (Digest.string (String.concat "|" fields))) 0 16
  in
  { post_tps = float_of_int post.Counters.transactions /. measure_s;
    pause_s = !pause;
    optimize_s = !optimize;
    digest;
    engine;
    version = Ocolos.version oc;
    counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] }

(* ---------- statistics and output ---------- *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | a ->
    let n = List.length a in
    if n mod 2 = 1 then List.nth a (n / 2)
    else (List.nth a ((n / 2) - 1) +. List.nth a (n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it, if any. *)
let tail xs =
  let n = List.length xs in
  if n <= 10 then None
  else
    let k = n - 11 in
    Some (100.0 *. float_of_int (k + 1) /. float_of_int n, List.nth (List.sort compare xs) k)

(* A metric no campaign produced (all failed) prints as null; [correct] is
   false then. *)
let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    let value = if Float.is_finite value then Printf.sprintf "%.17g" value else "null" in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name value unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (name, value, unit) -> Printf.printf "  %-30s %14.6g %s\n" name value unit) rows

(* Per-layer metrics of one traced campaign, from its spans and counts. *)
let layer_metrics ~campaign_id (o : outcome) =
  let mine = List.filter (fun s -> s.campaign = campaign_id) !spans in
  let sum f ss = List.fold_left (fun acc s -> acc +. f s) 0.0 ss in
  let named p = List.filter (fun s -> p s.name) mine in
  let self_of layer = sum self_time (named (fun n -> layer_of n = layer)) in
  let dur s = s.t1 -. s.t0 and words s = s.w1 -. s.w0 in
  let instrs s = Option.value ~default:0.0 (List.assoc_opt "instructions" s.args) in
  let count k = Option.value ~default:0.0 (List.assoc_opt k o.counts) in
  let runs = named (String.starts_with ~prefix:"proc.run.") in
  let profiled, unprofiled = List.partition (fun s -> s.name = "proc.run.profile") runs in
  (* The sampling slowdown compares each profile window with the background
     window right after it: same code, warm engine caches, no sampling. *)
  let background = named (( = ) "proc.run.background") in
  let mips ss = sum instrs ss /. sum dur ss /. 1e6 in
  let perf2bolt_s = sum self_time (named (( = ) "profiler.stop_profiling")) in
  let bolt_s = self_of "bolt" and validate_s = self_of "validate" in
  let root = List.find (fun s -> s.name = "campaign") mine in
  [ ("proc.run_s", self_of "proc", "s");
    ("proc.minstr_per_s", mips unprofiled, "Minstr/s");
    ("proc.alloc_words_per_instr", sum words runs /. sum instrs runs, "words/instr");
    ("proc.decodes", count "proc.decodes", "count");
    ("proc.instrs_per_dispatch", count "proc.instructions" /. count "proc.dispatches", "instr");
    ("proc.invalidations", count "proc.invalidations", "count");
    ("profiler.sampling_slowdown", mips background /. mips profiled, "ratio");
    ("profiler.records", count "profiler.records", "count");
    ("profiler.perf2bolt_s", perf2bolt_s, "s");
    ("profiler.perf2bolt_alloc_mw", sum words (named (( = ) "profiler.stop_profiling")) /. 1e6,
      "Mwords");
    ("bolt.run_s", bolt_s, "s");
    ("bolt.work_instrs", count "bolt.work_instrs", "count");
    ("bolt.funcs_reordered", count "bolt.funcs_reordered", "count");
    ("bolt.skipped", count "bolt.skipped", "count");
    ("bolt.alloc_mw", sum words (named (fun n -> layer_of n = "bolt")) /. 1e6, "Mwords");
    ("validate.run_s", validate_s, "s");
    ("validate.instrs", count "validate.instrs", "count");
    ("validate.rejects", count "validate.rejects", "count");
    ("validate.share_of_phase", validate_s /. (perf2bolt_s +. bolt_s), "ratio");
    ("shadow.prepare_s", sum self_time (named (( = ) "shadow.prepare")), "s");
    ("shadow.check_s", sum self_time (named (( = ) "shadow.check")), "s");
    ("txn.replace_s", self_of "txn", "s");
    ("txn.commits_per_attempt", count "txn.commits" /. count "txn.attempts", "ratio");
    ("txn.sites_patched", count "txn.sites_patched", "count");
    ("txn.frames_migrated", count "txn.frames_migrated", "count");
    ("txn.code_bytes_injected", count "txn.code_bytes_injected", "bytes");
    ("txn.gc_bytes_freed", count "txn.gc_bytes_freed", "bytes");
    ("ocolos.verify_s", sum self_time (named (( = ) "ocolos.verify_no_dangling")), "s");
    ("trace.uncovered_share", self_time root /. dur root, "ratio") ]

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME kv_campaign | kernel_campaign | oltp_drift");
      ("--seed", Arg.Set_int seed, "N workload seed (Workload.launch ~seed)");
      ("--seconds", Arg.Set_int seconds, "S measurement budget in host seconds");
      ("--trace", Arg.Set_int trace, "0|1 0: end-to-end metrics; 1: per-layer spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let app =
    match List.find_opt (fun a -> a.label = !workload) apps with
    | Some a -> a
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n%s\n" !workload
        (String.concat ", " (List.map (fun a -> a.label) apps))
        usage;
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  Printf.printf "campaign_bench: workload=%s (%s) seed=%d seconds=%d trace=%d\n%!" app.label
    app.why !seed !seconds !trace;
  (* Set-up: build the app analog several times; keep the last build. *)
  tracing := traced;
  let build_times = ref [] in
  let builds (min_builds, min_s) =
    let start = now () in
    let rec go n =
      let t0 = now () in
      let w = span "workloads.build" app.build in
      let t1 = now () in
      build_times := (t1 -. t0) :: !build_times;
      if n + 1 >= min_builds && t1 -. start >= min_s then w else go (n + 1)
    in
    go 0
  in
  let w = builds setup_first in
  Printf.printf "setup: %d builds of %s, median %.4f s\n%!" (List.length !build_times)
    w.Workload.name (median !build_times);
  (* Campaigns back to back (closed loop, one client) until the budget is
     spent. A new campaign starts only while the median so far still fits,
     so a run overshoots by at most one campaign's spread. In traced mode
     every other campaign runs with spans off, to measure the overhead. *)
  let t_start = now () in
  (* The heap peak of set-up plus one campaign: how many campaigns fit in
     the budget depends on host speed, and later ones grow the peak a little
     through fragmentation. *)
  let first_top_heap_words = ref 0 in
  let budget = float_of_int !seconds in
  let rec loop i acc =
    let elapsed = now () -. t_start in
    let walls = List.map (fun (_, _, wall, _, _) -> wall) acc in
    (* A traced run needs one campaign with spans off for the overhead. *)
    let min_campaigns = if traced then 2 else 1 in
    if i >= min_campaigns && elapsed +. median walls > budget then List.rev acc
    else begin
      let traced_campaign = traced && i mod 2 = 0 in
      tracing := traced_campaign;
      cur_campaign := i;
      (* Start every campaign from a collected heap, so garbage left by the
         previous one is not charged to it. *)
      Gc.full_major ();
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r =
        match span "campaign" (fun () -> campaign ~seed:!seed app w) with
        | o -> Ok o
        | exception Campaign_failed why -> Error why
        | exception e -> Error (Printexc.to_string e)
      in
      let wall = now () -. t0 in
      let words = Gc.minor_words () -. w0 in
      if i = 0 then first_top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
      tracing := false;
      (match r with
      | Ok o ->
        Printf.printf
          "campaign %d: ok %.3f s, %.3f Mw, digest %s (post_tps %.1f, pause %.3f ms, optimize \
           %.3f s, C%d)%s\n%!"
          i wall (words /. 1e6) o.digest o.post_tps (o.pause_s *. 1e3) o.optimize_s o.version
          (if traced_campaign then " [traced]" else "")
      | Error why -> Printf.printf "campaign %d: FAILED after %.3f s: %s\n%!" i wall why);
      ignore (builds setup_between);
      loop (i + 1) ((i, r, wall, words, traced_campaign) :: acc)
    end
  in
  let results = loop 0 [] in
  let attempted = List.length results in
  let oks = List.filter_map (fun (_, r, _, _, _) -> Result.to_option r) results in
  let failed = attempted - List.length oks in
  (* Every campaign of a run uses the same seed, so the simulation must
     repeat exactly: a second digest means nondeterminism. *)
  let digests = List.sort_uniq compare (List.map (fun o -> o.digest) oks) in
  let deterministic = List.length digests <= 1 in
  Printf.printf "digest: %s%s\n" (String.concat " " digests)
    (if deterministic then "" else "  NONDETERMINISM: campaigns of one seed differ");
  (match oks with
  | o :: _ ->
    Printf.printf "engine: %s (Proc.run default), per campaign: %s\n" o.engine
      (String.concat ", "
         (List.map
            (fun k -> Printf.sprintf "%s %.0f" k (List.assoc k o.counts))
            [ "proc.decodes"; "proc.dispatches"; "proc.invalidations"; "proc.instructions" ]))
  | [] -> ());
  let walls_of pick =
    List.filter_map (fun (_, r, wall, _, t) -> if Result.is_ok r && pick t then Some wall else None)
      results
  in
  let untraced = walls_of not and traced_walls = walls_of Fun.id in
  let e2e_walls =
    if untraced = [] then List.map (fun (_, _, wall, _, _) -> wall) results else untraced
  in
  let campaign_s = ("campaign_s", median e2e_walls, "s") in
  let setup_s = median !build_times in
  let med_o f = median (List.map f oks) in
  (* The gated end-to-end metrics. campaign_s is printed with them but
     reported among the per-layer metrics: see README.md, "Noise". *)
  let e2e =
    [ ("campaign_alloc_mw", median (List.map (fun (_, _, _, w, _) -> w) results) /. 1e6, "Mwords");
      ( "peak_heap_mb",
        float_of_int (!first_top_heap_words * (Sys.word_size / 8)) /. 1e6,
        "MB" );
      ("setup_s", setup_s, "s");
      ("sim_post_tps", med_o (fun o -> o.post_tps), "tx/s");
      ("sim_pause_ms", med_o (fun o -> o.pause_s *. 1e3), "ms");
      ("sim_optimize_s", med_o (fun o -> o.optimize_s), "s") ]
  in
  print_table
    (Printf.sprintf "end-to-end (%s, seed %d, %d campaigns, %d failed):" app.label !seed attempted
       failed)
    ((campaign_s :: e2e)
    @ [ ("campaign_fail_ratio", float_of_int failed /. float_of_int attempted, "ratio") ]);
  (match tail e2e_walls with
  | Some (p, v) -> Printf.printf "  campaign_s p%.0f = %.4f s\n" p v
  | None ->
    Printf.printf "  campaign_s tail: none (%d samples; a percentile needs 10 beyond it)\n"
      (List.length e2e_walls));
  let correct = failed = 0 && deterministic in
  if not traced then result_line ~correct ~attempted ~failed e2e
  else begin
    (* Per-layer table: the median over traced campaigns of each metric. *)
    let per_campaign =
      List.filter_map
        (fun (i, r, _, _, t) ->
          match r with Ok o when t -> Some (layer_metrics ~campaign_id:i o) | _ -> None)
        results
    in
    let overhead =
      if untraced = [] || traced_walls = [] then nan
      else (median traced_walls /. median untraced) -. 1.0
    in
    let layers =
      match per_campaign with
      | [] -> []
      | first :: _ ->
        campaign_s
        :: ("workloads.build_s", setup_s, "s")
        :: List.map
             (fun (name, _, unit) ->
               let v (n, _, _) = n = name in
               ( name,
                 median
                   (List.map
                      (fun ms ->
                        let _, x, _ = List.find v ms in
                        x)
                      per_campaign),
                 unit ))
             first
        @ [ ("trace.overhead_share", overhead, "ratio") ]
    in
    print_table
      (Printf.sprintf "per-layer (median of %d traced campaigns; self times exclude child spans):"
         (List.length per_campaign))
      layers;
    Printf.printf
      "tracing overhead: traced campaign_s median %.4f s vs %.4f s untraced (%d vs %d \
       campaigns)\n"
      (median traced_walls) (median untraced) (List.length traced_walls) (List.length untraced);
    let dir = Filename.concat "campaign_bench" "out" in
    let path = Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" app.label !seed) in
    (try
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       let oc = open_out path in
       output_string oc (Json.to_string (chrome_json ()));
       close_out oc;
       Printf.printf "trace: %d spans written to %s\n" (List.length !spans) path
     with Sys_error e -> Printf.printf "trace: not written (%s)\n" e);
    result_line ~correct ~attempted ~failed layers
  end
