(** Replayable fuzz artifacts: a workload plus a crash schedule, with the
    provenance (campaign seed, case index) and failure message captured
    when the case was found.

    The format is line-based and self-describing — workload lines
    ([kind]/[workers]/[init]/[stack]/[op]) and schedule lines ([era]/[kill]) as
    serialised by {!Workload} and {!Schedule}, plus [seed]/[case]/[fail]
    metadata; [#] starts a comment:

    {v
    # crash_fuzzer reproducer
    seed 42
    case 17
    kind faulty
    workers 1
    init 0
    op bump
    op bump
    era 1 at-op 9
    fail faulty counter: expected 2, got 3
    v} *)

type t = {
  seed : int option;  (** Campaign master seed that found the case. *)
  case : int option;  (** Case index within that campaign. *)
  workload : Workload.t;
  schedule : Schedule.t;
  expected : string option;  (** Failure message at capture time. *)
  trace : Obs.Trace.event list;
      (** Trace tail of the failing replay; serialised as [#] comment
          lines, so {!of_lines} always yields [[]] — the trace is
          diagnostic context for humans, not replay input. *)
}

val to_lines : t -> string list
val of_lines : string list -> (t, string) result

val write : string -> t -> unit
(** [write path t] serialises [t] to [path]. *)

val read : string -> (t, string) result
(** [read path] parses [path]; [Error] carries a parse or I/O message. *)

val replay : t -> Harness.outcome
(** Re-run the captured case exactly: [Harness.run t.workload t.schedule],
    which follows the schedule's [interleave] prefix and then the default
    policy — the same path for a fuzz failure and a model-checker
    violation. *)
