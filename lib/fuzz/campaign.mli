(** Fuzz campaigns: a deterministic sequence of cases drawn from one
    master seed.

    Case [i] of a campaign with seed [s] is generated from
    [Random.State.make [| s; i |]] — cases are independent of each other
    and of [runs], so case 17 of [--seed 42 --runs 50] is byte-identical
    to case 17 of [--seed 42 --runs 1000].  The same generator, past the
    workload and schedule draws, seeds the case's uniform-random
    scheduling policy ({!Runtime.Coop.random_decision}), so a case —
    interleaving included — is a pure function of [(s, i)].

    The [log] trace prints one line per case — kind, workers, op count,
    schedule digest, verdict — so two invocations with the same seed
    produce the same trace. *)

type config = {
  seed : int;
  runs : int;
  kinds : Workload.kind list;  (** Drawn uniformly per case. *)
  max_ops : int;
  max_workers : int;
  max_eras : int;
  shrink_attempts : int;  (** Re-run budget per failing case. *)
  faults : bool;
      (** Draw media-fault plans (torn crash writes, restart bit flips)
          into the generated schedules.  The oracle stays the same — answers
          must be right, structural checks must pass — plus [Fatal]
          refusals are tolerated for faulted schedules: the
          no-silent-corruption contract. *)
  sabotage : bool;
      (** Self-check mode: run every case twice — checksum verification
          on, then disabled — and flag each case whose verdict or
          fingerprint changes.  A fault campaign under sabotage must
          produce findings; if it stays green, verification never
          altered an outcome and the checksums are toothless.  Both runs
          of a case follow the same seeded interleaving, so they differ
          only where verification changed something, at any worker
          count. *)
}

val default : config
(** Seed 1, 50 runs over {!Workload.correct_kinds}, up to 48 ops, 4
    workers, 4 eras, 150 shrink attempts; no media faults, no sabotage. *)

type failure = {
  case : int;
  workload : Workload.t;  (** As generated, before shrinking. *)
  schedule : Schedule.t;
      (** As generated, with the choices the policy made as its
          [interleave]: it replays [outcome] exactly. *)
  outcome : Harness.outcome;
  shrunk : Shrink.result;
  trace : Obs.Trace.event list;
      (** Event-trace tail of one extra replay of the shrunk case, run
          with observability enabled — the moments leading up to the
          failure, for the reproducer artifact. *)
}

type report = {
  cases : int;
  failures : failure list;
  fatals : int;
      (** Cases whose faulted schedule made recovery refuse the image —
          loud failures, counted but not findings. *)
}

val case_inputs : config -> int -> Workload.t * Schedule.t
(** [case_inputs config i] regenerates case [i]'s workload and schedule
    without running it. *)

val trace_of_shrunk :
  ?tail:int -> ?sabotage:bool -> Shrink.result -> Obs.Trace.event list
(** [trace_of_shrunk shrunk] replays the shrunk case once with
    observability enabled and returns the last [tail] (default 64) trace
    events.  Deterministic: the same case yields the same event sequence
    (timestamps aside). *)

val reproducer_of_failure : config -> failure -> Reproducer.t
(** Package a failure's {e shrunk} case as a replayable artifact,
    including its trace tail as comment lines. *)

val run : ?log:(string -> unit) -> config -> report
(** Run the campaign, invoking [log] once per case (default: silent). *)
