(* Per-function front-end event attribution (see func_attrib.mli). *)

module Core = Ocolos_uarch.Core
module Binary = Ocolos_binary.Binary
module Layout_health = Ocolos_obs.Layout_health

type counts = {
  mutable k_l1i : int;
  mutable k_itlb : int;
  mutable k_btb : int;
  mutable k_taken : int;
}

type session = {
  proc : Ocolos_proc.Proc.t;
  by_addr : (int, counts) Hashtbl.t;
  mutable active : bool;
}

let start proc =
  let by_addr = Hashtbl.create 1024 in
  let observe ev addr =
    let c =
      match Hashtbl.find_opt by_addr addr with
      | Some c -> c
      | None ->
        let c = { k_l1i = 0; k_itlb = 0; k_btb = 0; k_taken = 0 } in
        Hashtbl.add by_addr addr c;
        c
    in
    match ev with
    | Core.L1i_miss -> c.k_l1i <- c.k_l1i + 1
    | Core.Itlb_miss -> c.k_itlb <- c.k_itlb + 1
    | Core.Btb_miss -> c.k_btb <- c.k_btb + 1
    | Core.Taken_branch -> c.k_taken <- c.k_taken + 1
  in
  Array.iter
    (fun (thread : Ocolos_proc.Thread.t) ->
      Core.set_fe_observer thread.Ocolos_proc.Thread.core (Some observe))
    proc.Ocolos_proc.Proc.threads;
  { proc; by_addr; active = true }

let stop session =
  if session.active then begin
    session.active <- false;
    Array.iter
      (fun (thread : Ocolos_proc.Thread.t) ->
        Core.set_fe_observer thread.Ocolos_proc.Thread.core None)
      session.proc.Ocolos_proc.Proc.threads
  end

let drain session (binary : Binary.t) =
  let index = Binary.build_addr_index binary in
  let per_fid = Hashtbl.create 64 in
  Hashtbl.iter
    (fun addr (c : counts) ->
      match Binary.index_lookup index addr with
      | -1 -> ()
      | fid ->
        let acc =
          match Hashtbl.find_opt per_fid fid with
          | Some acc -> acc
          | None ->
            let acc = { k_l1i = 0; k_itlb = 0; k_btb = 0; k_taken = 0 } in
            Hashtbl.add per_fid fid acc;
            acc
        in
        acc.k_l1i <- acc.k_l1i + c.k_l1i;
        acc.k_itlb <- acc.k_itlb + c.k_itlb;
        acc.k_btb <- acc.k_btb + c.k_btb;
        acc.k_taken <- acc.k_taken + c.k_taken)
    session.by_addr;
  Hashtbl.reset session.by_addr;
  Hashtbl.fold
    (fun fid (c : counts) acc ->
      ( fid,
        binary.Binary.symbols.(fid).Binary.fs_name,
        { Layout_health.fc_l1i = c.k_l1i;
          fc_itlb = c.k_itlb;
          fc_btb = c.k_btb;
          fc_taken = c.k_taken } )
      :: acc)
    per_fid []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
