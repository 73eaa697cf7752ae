(* Crash-recovery tests: Supervisor.kill_at / restart and the Chaos
   kill-at-every-point property, on a subset of the fault catalog covering
   every domain (the CI chaos job sweeps Chaos.default_points x seeds),
   plus a fleet kill at gc_reap. *)

open Ocolos_workloads
module Daemon = Ocolos_core.Daemon
module Guard = Ocolos_core.Guard
module Supervisor = Ocolos_core.Supervisor
module Chaos = Ocolos_sim.Chaos
module Fault = Ocolos_util.Fault

(* One point per fault domain, plus the transaction points whose kill paths
   exercise distinct recovery machinery: rollback of a half-applied
   replacement (pause/inject_code/commit) and a death mid-frame-rewrite
   (osr_frame). [gc_reap] is covered by the fleet scenario below: only a
   revert leaves residue for it to reap. *)
let subset_points =
  [ "perf.detach";
    "perf2bolt.aggregate";
    "bolt.func_reorder";
    "proc.pause_timeout";
    "mem.exhausted";
    "pause";
    "inject_code";
    "commit";
    "osr_frame" ]

let test_chaos_subset_sweep () =
  let results = Chaos.sweep ~seeds:[ 1 ] ~points:subset_points () in
  Alcotest.(check int) "all scenarios ran" (List.length subset_points) (List.length results);
  List.iter
    (fun r ->
      if not (Chaos.passed r) then
        Alcotest.fail (Printf.sprintf "chaos scenario failed: %s" (Chaos.result_to_string r)))
    results

(* Reaping needs residue to die, and only a revert leaves residue: in a
   fleet, a canary rollback reverts replicas, and the next rollout's
   replacement reaps the drained copies. A death there strands a mixed
   fleet, which the restart must revert and drive to a homogeneous state. *)
let test_chaos_fleet_gc_reap () =
  let r = Chaos.fleet_scenario ~seed:1 ~point:"gc_reap" () in
  let desc = Chaos.fleet_result_to_string ~seed:1 ~point:"gc_reap" r in
  Alcotest.(check bool) ("fleet chaos passed: " ^ desc) true (Chaos.fleet_passed r)

let setup ?(seed = 5) ?fault () =
  let w = Apps.tiny ~tx_limit:None () in
  let input = Workload.find_input w "a" in
  let proc = Workload.launch ~seed w ~input in
  let fault = match fault with Some f -> f | None -> Fault.create ~seed () in
  let oc =
    Ocolos_core.Ocolos.attach
      ~config:{ Ocolos_core.Ocolos.default_config with Ocolos_core.Ocolos.fault = Some fault }
      proc
  in
  (proc, oc, fault)

let daemon_config =
  { Daemon.default_config with Daemon.profile_s = 1.0; warmup_s = 0.5; min_interval_s = 2.0 }

let step proc i =
  Ocolos_proc.Proc.run ~cycle_limit:infinity ~max_instrs:12_000 proc;
  float_of_int (i + 1)

let test_kill_at_survives_unreached_point () =
  (* A tick budget too small for the campaign to reach the armed point:
     kill_at reports Survived and leaves the point disarmed. *)
  let proc, oc, fault = setup () in
  let d = Daemon.create ~config:daemon_config oc proc in
  (match Supervisor.kill_at ~fault ~point:"commit" d ~step:(step proc) ~max_ticks:1 with
  | Supervisor.Survived -> ()
  | Supervisor.Died _ -> Alcotest.fail "died before the campaign could reach commit");
  Alcotest.(check bool) "point disarmed on exit" false (Fault.lethal fault "commit");
  (* The same daemon keeps working after the aborted kill attempt. *)
  match Supervisor.run_to_convergence d ~step:(step proc) ~max_ticks:40 with
  | Supervisor.Converged_replaced { version; _ } ->
    Alcotest.(check bool) "replaced after disarm" true (version >= 1)
  | c -> Alcotest.fail ("expected replacement, got " ^ Supervisor.convergence_to_string c)

let test_restart_carries_guard_state () =
  (* The restarted daemon shares the dead daemon's guard (as an on-disk
     sidecar would): quarantine and breaker memory survive the crash. *)
  let proc, oc, fault = setup () in
  let d = Daemon.create ~config:daemon_config oc proc in
  let g = Daemon.guard d in
  Guard.record_func_failures g [ (2, "bolt.cfg"); (2, "bolt.cfg") ];
  Guard.campaign_failed g ~now_s:0.0;
  let outcome = Supervisor.kill_at ~fault ~point:"pause" d ~step:(step proc) ~max_ticks:30 in
  (match outcome with
  | Supervisor.Died { d_point = "pause"; _ } -> ()
  | Supervisor.Died d -> Alcotest.fail ("died at the wrong point: " ^ d.Supervisor.d_point)
  | Supervisor.Survived -> Alcotest.fail "kill point never fired");
  ignore oc;
  let d' = Supervisor.restart ~config:daemon_config ~guard:g proc in
  Alcotest.(check bool) "guard identity carried" true (Daemon.guard d' == g);
  Alcotest.(check (list int)) "quarantine survives the crash" [ 2 ] (Daemon.quarantined d');
  Alcotest.(check int) "failure memory survives" 1 (Guard.consecutive_failures g);
  match Supervisor.run_to_convergence d' ~step:(step proc) ~max_ticks:40 with
  | Supervisor.Converged_replaced { version; _ } ->
    Alcotest.(check bool) "restart converges" true (version >= 1);
    Alcotest.(check int) "commit clears consecutive failures" 0 (Guard.consecutive_failures g);
    Alcotest.(check (list int)) "quarantine is permanent" [ 2 ] (Daemon.quarantined d')
  | c -> Alcotest.fail ("expected replacement, got " ^ Supervisor.convergence_to_string c)

let test_restart_on_clean_process () =
  (* Reattach to a process nobody crashed on: the fresh daemon just runs a
     normal first campaign. *)
  let w = Apps.tiny ~tx_limit:None () in
  let proc = Workload.launch ~seed:7 w ~input:(Workload.find_input w "a") in
  let d = Supervisor.restart ~config:daemon_config proc in
  match Supervisor.run_to_convergence d ~step:(step proc) ~max_ticks:40 with
  | Supervisor.Converged_replaced { version = 1; _ } -> ()
  | c -> Alcotest.fail ("expected C1, got " ^ Supervisor.convergence_to_string c)

let suite =
  [ Alcotest.test_case "kill_at survives unreached point" `Quick
      test_kill_at_survives_unreached_point;
    Alcotest.test_case "restart carries guard state" `Quick test_restart_carries_guard_state;
    Alcotest.test_case "restart on clean process" `Quick test_restart_on_clean_process;
    Alcotest.test_case "chaos: kill/restart subset sweep" `Slow test_chaos_subset_sweep;
    Alcotest.test_case "chaos: fleet kill at gc_reap" `Slow test_chaos_fleet_gc_reap ]
