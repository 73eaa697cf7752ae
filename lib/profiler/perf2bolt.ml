(* perf2bolt analog: convert raw LBR samples into an aggregated profile.

   Classifies each LBR entry against the binary (call edge vs. branch edge)
   and derives fallthrough ranges from consecutive entries — the range
   [to_1, from_2] between two successive taken branches executed straight
   line. The conversion dominates OCOLOS's background costs in the paper
   (Table II), so we expose the processed record count for the cost model. *)

open Ocolos_binary

(* Fault points of the perf2bolt domain — both *raise* out of [convert]
   rather than degrade in place (a failed aggregation yields no usable
   profile; the supervisor treats it as a failed campaign and retries or
   trips the breaker):
     perf2bolt.stale_syms  cut once per convert, before any aggregation —
                           the paper's C2 problem: samples resolved against
                           symbols from a layout a prior replacement retired
     perf2bolt.aggregate   cut once per sample batch *)

(* ---- staged aggregation ----

   Conversion runs once per LBR record, so it counts into [stage]s — an
   [Itbl] from an int key to a slot, with keys and counts in flat arrays in
   first-seen order — and writes each [Profile] table once at the end,
   adding the keys in that order with their final counts. A [Hashtbl]'s
   shape depends only on the sequence of new-key insertions (a later
   [replace] of a bound key updates it in place), so the tables come out
   structurally identical to bumping each record straight into them, down
   to iteration order, while the per-record path allocates nothing. *)

type stage = {
  slot_of : Ocolos_util.Itbl.t; (* key -> index into [keys]/[counts] *)
  mutable keys : int array;
  mutable counts : int array;
  mutable n : int;
}

let stage () =
  { slot_of = Ocolos_util.Itbl.create 256; keys = Array.make 256 0; counts = Array.make 256 0; n = 0 }

let bump st key =
  let slot = Ocolos_util.Itbl.find_default st.slot_of key ~default:(-1) in
  if slot >= 0 then st.counts.(slot) <- st.counts.(slot) + 1
  else begin
    if st.n = Array.length st.keys then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      st.keys <- grow st.keys;
      st.counts <- grow st.counts
    end;
    st.keys.(st.n) <- key;
    st.counts.(st.n) <- 1;
    Ocolos_util.Itbl.replace st.slot_of key st.n;
    st.n <- st.n + 1
  end

(* Pair keys pack two non-negative values below 2^31 (code addresses and
   fids, and their [Lbr.corrupt_batch] scrambles) into one int. *)
let pair_bits = 31

let pack a b =
  if (a lor b) lsr pair_bits <> 0 then
    invalid_arg (Printf.sprintf "Perf2bolt: address pair (0x%x, 0x%x) exceeds 31 bits" a b);
  (a lsl pair_bits) lor b

let flush_pairs st tbl =
  let mask = (1 lsl pair_bits) - 1 in
  for i = 0 to st.n - 1 do
    let k = st.keys.(i) in
    Hashtbl.add tbl (k lsr pair_bits, k land mask) st.counts.(i)
  done

let convert ~(binary : Binary.t) ?fault (samples : Perf.sample list) : Profile.t =
  Ocolos_obs.Trace.span "perf2bolt.convert" @@ fun conv_sp ->
  let cut name = match fault with None -> () | Some f -> Ocolos_util.Fault.cut f name in
  cut "perf2bolt.stale_syms";
  let index = Binary.build_addr_index binary in
  let entry_of_fid = Hashtbl.create 256 in
  Array.iter
    (fun s -> Hashtbl.replace entry_of_fid s.Binary.fs_entry s.Binary.fs_fid)
    binary.Binary.symbols;
  let branches = stage () and ranges = stage () and calls = stage () and funcs = stage () in
  List.iter
    (fun (s : Perf.sample) ->
      cut "perf2bolt.aggregate";
      let e = s.Perf.entries in
      let n = Array.length e / 2 in
      for i = 0 to n - 1 do
        let from_addr = e.(2 * i) and to_addr = e.((2 * i) + 1) in
        bump branches (pack from_addr to_addr);
        let fid_from = Binary.index_lookup index from_addr
        and fid_to = Binary.index_lookup index to_addr in
        if fid_from >= 0 then bump funcs fid_from;
        if fid_to >= 0 && fid_to <> fid_from then bump funcs fid_to;
        (* A call edge: the source instruction is a call, or the target is
           a function entry reached by a non-return transfer. *)
        if fid_from >= 0 && fid_to >= 0 then begin
          let is_call =
            match Hashtbl.find binary.Binary.code from_addr with
            | Ocolos_isa.Instr.Call _ | Ocolos_isa.Instr.CallInd _ -> true
            | _ -> false
            | exception Not_found -> Hashtbl.mem entry_of_fid to_addr && fid_from <> fid_to
          in
          if is_call then bump calls (pack fid_from fid_to)
        end;
        (* Fallthrough range between consecutive taken branches: from this
           target to the next source, when both lie in one function. *)
        if i + 1 < n then begin
          let range_end = e.(2 * (i + 1)) in
          if to_addr <= range_end && fid_to >= 0 && fid_to = Binary.index_lookup index range_end
          then bump ranges (pack to_addr range_end)
        end
      done)
    samples;
  let profile = Profile.create () in
  flush_pairs branches profile.Profile.branches;
  flush_pairs ranges profile.Profile.ranges;
  flush_pairs calls profile.Profile.calls;
  for i = 0 to funcs.n - 1 do
    Hashtbl.add profile.Profile.func_records funcs.keys.(i) funcs.counts.(i)
  done;
  let records = Perf.record_count samples in
  profile.Profile.total_records <- records;
  Ocolos_obs.Trace.set_attr conv_sp "records" (Ocolos_obs.Trace.I records);
  Ocolos_obs.Trace.set_attr conv_sp "branch_edges"
    (Ocolos_obs.Trace.I (Hashtbl.length profile.Profile.branches));
  Ocolos_obs.Trace.set_attr conv_sp "fallthrough_ranges"
    (Ocolos_obs.Trace.I (Hashtbl.length profile.Profile.ranges));
  Ocolos_obs.Metrics.count "ocolos_perf2bolt_records_total" records;
  profile

(* Whole-sample decimation: per-sample processing above is independent
   across batches (fallthrough ranges never cross a sample boundary), so
   keeping every Nth batch is an exact 1/N thinning of the record stream.
   N replicas with identical streams kept at interleaved phases partition
   the full stream, which is what makes fleet aggregation count-identical
   to a single full-rate replica. *)
let decimate ~keep_every ~phase samples =
  if keep_every < 1 then invalid_arg "Perf2bolt.decimate: keep_every < 1";
  if phase < 0 || phase >= keep_every then invalid_arg "Perf2bolt.decimate: phase out of range";
  if keep_every = 1 then samples
  else List.filteri (fun i _ -> i mod keep_every = phase) samples

let convert_sources ~binary ?fault sources = convert ~binary ?fault (List.concat sources)
