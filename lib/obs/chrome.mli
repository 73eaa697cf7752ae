(** Chrome trace-event JSON export (loadable in Perfetto / chrome://tracing).

    Spans become complete ("ph":"X") events with microsecond [ts]/[dur],
    instants become "i" events, and counter samples become "C" events whose
    args render as counter tracks. All timestamps are integers from the
    trace's simulated clock and events are sorted by timestamp (which is
    unique per event), so the output is byte-deterministic.

    Events recorded inside {!Trace.in_replica} (carrying a ["replica"]
    attribute) are routed to a per-replica Perfetto process: replica [n]
    renders under pid [n+2] named ["<process_name> replica n"], with the
    attribute consumed rather than shown as an arg. A trace without replica
    attributes renders exactly as before (single process, pid 1). *)

(** Still-open spans are closed at the trace's current time. *)
val of_trace : ?process_name:string -> Trace.t -> Json.t

val to_string : ?process_name:string -> Trace.t -> string

(** Write the trace-event JSON to [path]. *)
val save : ?process_name:string -> string -> Trace.t -> unit
