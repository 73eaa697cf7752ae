(* True on-stack replacement acceptance tests: a never-returning entry
   function migrated out of its original text, the post-GC reachability
   scanner covering engine-held code pointers, revert leaving no
   ever-growing residue, and drain-window accounting converging to zero. *)

open Ocolos_workloads
module O = Ocolos_core.Ocolos
module Proc = Ocolos_proc.Proc
module Addr_space = Ocolos_proc.Addr_space

(* Complete emission: hot_threshold 1 optimizes anything that moved, and
   lite=false re-emits even never-executed functions, so a campaign can
   retire the entire original text. *)
let greedy_config =
  { O.default_config with
    O.bolt =
      { O.default_config.O.bolt with
        Ocolos_bolt.Bolt.hot_threshold = 1;
        max_hot_funcs = None;
        lite = false } }

let optimize_once ?(engine = `Blocks) ?(profile_instrs = 300_000) proc oc =
  O.start_profiling oc;
  Proc.run ~engine ~cycle_limit:infinity ~max_instrs:profile_instrs proc;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  (result, O.replace_code oc result)

let mapped_code_bytes (proc : Proc.t) =
  Hashtbl.fold
    (fun _ i acc -> acc + Ocolos_isa.Instr.size i)
    proc.Proc.mem.Addr_space.code 0

let test_never_returning_entry_replaced () =
  let w = Apps.event_loop () in
  let input = Workload.find_input w "steady" in
  let proc = Workload.launch w ~input in
  let oc = O.attach ~config:greedy_config proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
  let rounds = ref 0 in
  while O.c0_text_resident_bytes oc > 0 && !rounds < 10 do
    incr rounds;
    let _, stats = optimize_once proc oc in
    Alcotest.(check int) "one version per round" !rounds stats.O.version
  done;
  (* The entire original text — including the entry function, which never
     returns and whose frame only OSR can move — is unmapped. *)
  Alcotest.(check int) "no original text resident" 0 (O.c0_text_resident_bytes oc);
  let entry = proc.Proc.binary.Ocolos_binary.Binary.entry in
  Alcotest.(check bool) "original entry unmapped" true
    (Addr_space.read_code proc.Proc.mem entry = None);
  Alcotest.(check bool) "live entry moved" true
    ((O.current_binary oc).Ocolos_binary.Binary.entry <> entry);
  (* Exactly one code version resident: drain the transition window, reap,
     and the resident-extra accounting reads zero. *)
  Proc.run ~cycle_limit:infinity ~max_instrs:200_000 proc;
  ignore (O.gc_residue oc);
  Alcotest.(check int) "no residue after convergence" 0 (O.resident_extra_bytes oc);
  O.verify_no_dangling oc ~freed:[];
  (* And the loop is still serving transactions out of the final version. *)
  let tx = Proc.transactions proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:100_000 proc;
  Alcotest.(check bool) "still making progress" true (Proc.transactions proc > tx)

(* The reachability scanner must audit code pointers held by the block
   engine (cached block starts, per-thread resume memos), not just vtables,
   stacks and code. Severing the invalidation watcher reproduces the bug
   class: the engine keeps pointers into the retired text, and the post-GC
   scan has to catch them. *)
let test_scanner_covers_engine_pointers () =
  let run_round ~sever () =
    let w = Apps.tiny ~tx_limit:None () in
    let proc = Workload.launch w ~input:(Workload.find_input w "a") in
    let oc = O.attach proc in
    Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:150_000 proc;
    O.start_profiling oc;
    Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:150_000 proc;
    let profile, _ = O.stop_profiling oc in
    let result, _ = O.run_bolt oc profile in
    if sever then proc.Proc.mem.Addr_space.code_watchers <- [];
    let stats = O.replace_code oc result in
    (proc, stats)
  in
  (* Healthy path: the engine is invalidated through the watcher, the
     audit passes, and the caches validate against the new code map. *)
  let proc, stats = run_round ~sever:false () in
  Alcotest.(check int) "replacement committed" 1 stats.O.version;
  Alcotest.(check bool) "caches valid after OSR" true (Proc.validate_code_cache proc);
  Proc.run ~engine:`Blocks ~cycle_limit:infinity ~max_instrs:100_000 proc;
  (* Severed path: stale engine pointers into the retired text must be
     reported by the scanner, not silently survive. *)
  match run_round ~sever:true () with
  | exception O.Dangling_pointer msg ->
    Alcotest.(check bool)
      (Printf.sprintf "reported through a block-engine pointer: %s" msg)
      true
      (String.starts_with ~prefix:"engine block" msg)
  | _ -> Alcotest.fail "scanner missed engine-held pointers into freed text"

let test_attach_revert_cycles_leak_no_text () =
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  (* A never-returning frame reverted out of optimized text parks in one
     bounded evacuation copy; repeated optimize/revert cycles must reuse
     that footprint, not grow it. *)
  let high_water = ref 0 in
  for cycle = 1 to 3 do
    ignore (optimize_once ~profile_instrs:60_000 proc oc);
    let rv = O.revert oc (O.c0_snapshot oc) in
    Alcotest.(check int) "reverted to C0" 0 rv.O.rv_to_version;
    Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
    ignore (O.gc_residue oc);
    O.verify_no_dangling oc ~freed:[];
    let bytes = mapped_code_bytes proc in
    if cycle = 1 then high_water := bytes
    else
      Alcotest.(check bool)
        (Printf.sprintf "cycle %d text (%d) within cycle-1 high water (%d)" cycle bytes
           !high_water)
        true (bytes <= !high_water)
  done;
  (* The process is still live and correct after three round trips. *)
  let tx = Proc.transactions proc in
  Proc.run ~cycle_limit:infinity ~max_instrs:60_000 proc;
  Alcotest.(check bool) "still making progress" true (Proc.transactions proc > tx)

(* The one place a frame map is deliberately not exact: a jump-table
   dispatch window. Its table-base [Alui] names the old table, and the
   [Load]/[JumpInd] after it read through a register computed from that
   base, so a thread paused there continues in a verbatim copy of the old
   code — reading the old table, which stays mapped as an inherited word
   until the copy drains. Step one thread onto such an [Alui], replace,
   and follow the copy from creation to reaping. *)
let test_dispatch_window_pc_migrates_by_copy () =
  let base = Apps.tiny ~tx_limit:None () in
  let w =
    Workload.build ~no_jump_tables:false ~name:"tiny-jt" ~inputs:base.Workload.inputs
      ~nthreads:2 base.Workload.gen
  in
  let proc = Workload.launch w ~input:(Workload.find_input w "a") in
  let oc = O.attach proc in
  let mem = proc.Proc.mem in
  let run n = Proc.run ~engine:`Reference ~cycle_limit:infinity ~max_instrs:n proc in
  run 40_000;
  O.start_profiling oc;
  run 60_000;
  let profile, _ = O.stop_profiling oc in
  let result, _ = O.run_bolt oc profile in
  (* Old-text table-base Alui addresses the frame maps leave out. *)
  let windows = Hashtbl.create 16 in
  List.iter
    (fun (_, (fm : Ocolos_bolt.Frame_map.t)) ->
      Array.iter
        (fun (bs : Ocolos_bolt.Frame_map.block_site) ->
          let a = ref bs.Ocolos_bolt.Frame_map.bs_old_start in
          while !a < bs.Ocolos_bolt.Frame_map.bs_old_end do
            match Addr_space.read_code mem !a with
            | None -> a := bs.Ocolos_bolt.Frame_map.bs_old_end
            | Some i ->
              let next = !a + Ocolos_isa.Instr.size i in
              (match (i, Addr_space.read_code mem next) with
              | Ocolos_isa.Instr.Alui (Ocolos_isa.Instr.Add, s, _, _),
                Some (Ocolos_isa.Instr.Load (s', s'', 0))
                when s' = s && s'' = s && Ocolos_bolt.Frame_map.resolve fm !a = None ->
                Hashtbl.replace windows !a ()
              | _ -> ());
              a := next
          done)
        fm.Ocolos_bolt.Frame_map.fm_blocks)
    result.Ocolos_bolt.Bolt.frame_maps;
  Alcotest.(check bool) "BOLT result has unmapped dispatch windows" true
    (Hashtbl.length windows > 0);
  let thread = proc.Proc.threads.(0) in
  let steps = ref 0 in
  while (not (Hashtbl.mem windows thread.Ocolos_proc.Thread.pc)) && !steps < 1_000_000 do
    Proc.step proc thread;
    incr steps
  done;
  let old_pc = thread.Ocolos_proc.Thread.pc in
  Alcotest.(check bool) "thread paused on a table-base Alui" true (Hashtbl.mem windows old_pc);
  let alui = Addr_space.read_code mem old_pc in
  let stats = O.replace_code oc result in
  Alcotest.(check bool) "function evacuated by copy" true (stats.O.copied_funcs > 0);
  let new_pc = thread.Ocolos_proc.Thread.pc in
  Alcotest.(check bool) "PC moved out of the retired text" true (new_pc <> old_pc);
  Alcotest.(check bool) "old text unmapped" true (Addr_space.read_code mem old_pc = None);
  Alcotest.(check bool) "PC lands on the copied Alui" true (Addr_space.read_code mem new_pc = alui);
  Alcotest.(check bool) "copy is residue" true (O.resident_extra_bytes oc > 0);
  O.verify_no_dangling oc ~freed:[];
  (* The copy finishes its dispatch through the old table, drains, and is
     reaped together with the table words it read. *)
  let tx = Proc.transactions proc in
  run 200_000;
  ignore (O.gc_residue oc);
  Alcotest.(check int) "residue reaped after the drain" 0 (O.resident_extra_bytes oc);
  O.verify_no_dangling oc ~freed:[];
  Alcotest.(check bool) "still making progress" true (Proc.transactions proc > tx)

let suite =
  [ Alcotest.test_case "never-returning entry replaced" `Slow
      test_never_returning_entry_replaced;
    Alcotest.test_case "scanner covers engine pointers" `Quick
      test_scanner_covers_engine_pointers;
    Alcotest.test_case "attach/revert cycles leak no text" `Quick
      test_attach_revert_cycles_leak_no_text;
    Alcotest.test_case "dispatch-window PC migrates by copy" `Quick
      test_dispatch_window_pc_migrates_by_copy ]
