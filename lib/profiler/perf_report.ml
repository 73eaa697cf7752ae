(* perf report / perf annotate analog.

   Samples L1i-miss addresses across a process's cores and attributes them
   to functions (report) and to individual instructions (annotate). The
   paper's MySQL case study (Section VI-C) uses exactly this to show that
   MYSQLparse dominates L1i misses under average-case BOLT and Clang PGO but
   disappears entirely under OCOLOS and oracle BOLT. *)

type t = {
  samples : (int, int) Hashtbl.t; (* miss address -> sample count *)
  mutable total : int;
  period : int; (* every Nth miss is sampled *)
}

type session = { report : t; proc : Ocolos_proc.Proc.t; mutable seen : int }

(* Attach miss-sampling to every core of [proc]. *)
let start ?(period = 7) proc =
  let report = { samples = Hashtbl.create 1024; total = 0; period } in
  let session = { report; proc; seen = 0 } in
  Array.iter
    (fun (thread : Ocolos_proc.Thread.t) ->
      Ocolos_uarch.Core.set_l1i_miss_observer thread.Ocolos_proc.Thread.core
        (Some
           (fun addr ->
             session.seen <- session.seen + 1;
             if session.seen mod period = 0 then begin
               (match Hashtbl.find_opt report.samples addr with
               | Some c -> Hashtbl.replace report.samples addr (c + 1)
               | None -> Hashtbl.add report.samples addr 1);
               report.total <- report.total + 1
             end)))
    proc.Ocolos_proc.Proc.threads;
  session

let stop session =
  Array.iter
    (fun (thread : Ocolos_proc.Thread.t) ->
      Ocolos_uarch.Core.set_l1i_miss_observer thread.Ocolos_proc.Thread.core None)
    session.proc.Ocolos_proc.Proc.threads;
  session.report

type func_row = { fr_fid : int; fr_name : string; fr_samples : int; fr_share : float }

(* perf report: functions ranked by their share of sampled L1i misses. *)
let by_function t (binary : Ocolos_binary.Binary.t) =
  let index = Ocolos_binary.Binary.build_addr_index binary in
  let per_fid = Hashtbl.create 64 in
  Hashtbl.iter
    (fun addr count ->
      match Ocolos_binary.Binary.index_lookup index addr with
      | -1 -> ()
      | fid ->
        Hashtbl.replace per_fid fid
          (count + Option.value ~default:0 (Hashtbl.find_opt per_fid fid)))
    t.samples;
  Hashtbl.fold
    (fun fid samples acc ->
      { fr_fid = fid;
        fr_name = binary.Ocolos_binary.Binary.symbols.(fid).Ocolos_binary.Binary.fs_name;
        fr_samples = samples;
        fr_share = float_of_int samples /. float_of_int (max 1 t.total) }
      :: acc)
    per_fid []
  |> List.sort (fun a b -> compare b.fr_samples a.fr_samples)

(* perf annotate: one function's instructions with per-address sample
   counts. *)
let annotate t (binary : Ocolos_binary.Binary.t) fid =
  Ocolos_binary.Binary.func_instrs binary fid
  |> List.map (fun (addr, instr) ->
         (addr, instr, Option.value ~default:0 (Hashtbl.find_opt t.samples addr)))

let samples_of_func t (binary : Ocolos_binary.Binary.t) fid =
  List.fold_left (fun acc (_, _, c) -> acc + c) 0 (annotate t binary fid)

let pp_top ?(limit = 10) fmt (t, binary) =
  let rows = by_function t binary in
  Fmt.pf fmt "%d L1i-miss samples; top functions:@." t.total;
  List.iteri
    (fun i r ->
      if i < limit then
        Fmt.pf fmt "  %5.1f%%  %8d  %s@." (100.0 *. r.fr_share) r.fr_samples r.fr_name)
    rows
