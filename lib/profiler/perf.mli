(** perf-record analog: LBR sampling of a running process.

    Attaching installs a taken-branch hook feeding per-thread LBR rings;
    every [sample_period] core cycles the ring is snapshotted (a PMI),
    charging a small overhead to the sampled thread — the throughput dip of
    the paper's Fig. 7 region 2.

    The hook allocates nothing on a branch that does not trigger a PMI; a
    PMI allocates its snapshot, one {!sample} and one list cell. *)

type config = {
  sample_period : int;  (** core cycles between PMIs, per thread *)
  pmi_overhead : float;  (** cycles charged to the thread per sample *)
}

val default_config : config

(** One PMI's batch from thread [s_tid]: a flat {!Lbr.snapshot}, i.e.
    interleaved (from, to) address pairs, oldest first. *)
type sample = { s_tid : int; entries : int array }
type session

(** Attach to a (running or about-to-run) process. The caller keeps driving
    the process; branch events flow into the session until {!stop}. A
    previously installed taken-branch hook keeps receiving every event
    (perf observes the branch stream, it does not consume it).

    With [?fault], the [perf.*] fault domain is cut once per PMI, after the
    PMI overhead stall, in this order: [perf.detach] (lose the rest of the
    session), [perf.sample_drop] (lose this batch), [perf.sample_truncate]
    (keep the newest half), [perf.sample_corrupt] (scramble addresses).
    [Fault.Injected] is absorbed as profile degradation; [Fault.Killed]
    detaches immediately and is re-raised by {!stop} — the daemon dies at
    that PMI, the target keeps running untouched. *)
val start : ?cfg:config -> ?fault:Ocolos_util.Fault.t -> Ocolos_proc.Proc.t -> session

(** Detach, restoring any previous hook; returns samples oldest first.
    Re-raises a {!Ocolos_util.Fault.Killed} stashed by the sampling hook. *)
val stop : session -> sample list

val sample_count : session -> int

(** Total LBR records across samples (raw profile volume; drives the
    perf2bolt cost model). *)
val record_count : sample list -> int
