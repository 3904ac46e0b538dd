(** Global observability switch and clock.

    The switch gates timing work only: every latency or trace site checks
    {!enabled} first — one atomic load and a branch — so a disabled system
    takes no timestamps, touches no histograms and writes no trace events.
    The {!Counters} ledger is not gated: it counts whether or not the
    switch is on.  The switch is global because the hook points sit
    below the layers that know about systems or workers (the device, the
    heap), where there is no natural handle to thread a recorder through.

    The default is {e off}.  Benchmarks keep it off for timed sections and
    turn it on for a separate instrumented pass; the fuzzer turns it on when
    re-running a failing case to capture a trace. *)

val enabled : unit -> bool
(** Whether recording is currently on (default: off). *)

val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled b f] runs [f] with the switch set to [b], restoring the
    previous value afterwards (also on exceptions). *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary program-start epoch.  Monotonic enough
    for latency measurement: the epoch is subtracted before scaling so the
    float clock keeps sub-nanosecond precision over a run's lifetime. *)
