(** Execute one fuzz case: a {!Workload} driven to completion under a
    {!Schedule} by the crash-restart driver, followed by invariant
    checking.  The workers run on the workload's persistent stack kind
    (bounded, resizable or linked), and the heap's invariants are checked
    after every recovery.  The Section 5.2 CAS experiment
    ([Experiment.run]) is one such case.

    Recovery invariants checked, per workload kind:

    - {b all kinds}: the driver completes within its crash budget and every
      submitted task has exactly one answer;
    - {b rstack / rqueue}: no value is popped/dequeued twice (exactly-once
      under crashes), every extracted value was inserted, and the multiset
      of extracted plus remaining values equals the multiset of inserted
      values; with one worker the whole run must additionally replay a
      sequential simulation answer-for-answer;
    - {b rmap}: every surviving binding was put, and with one worker the
      bindings and every remove's present-flag must match a sequential
      simulation;
    - {b rcas}: the recorded CAS history (answers, initial and final
      register value) must be serializable per [lib/verify] — the paper's
      Section 5 check, i.e. the observable side of nesting-safe recoverable
      linearizability;
    - {b faulty}: the planted-bug counter must equal the number of
      increments (it does not for crash points inside the unprotected
      recovery window — that is the point);
    - {b rcounter}: the correct counter twin — op [i] must answer [i + 1]
      and the final counter must equal the op count.  Its body re-reads the
      counter before writing, so a stale (never-written-back) counter after
      a believed-complete op is observable: this is the workload that gives
      the flush-coalescing equivalence check its teeth.

    Workers run as fibers on {!Runtime.Coop}: at each scheduling point the
    schedule's [interleave] prefix picks the worker, and past it a
    decision policy does.  A case is thus a pure function of its workload,
    schedule and policy.

    A kill plan that happens to land on the orchestrating thread instead of
    a worker is an artifact of the simulation, not a structure bug: the
    case is re-run once without the kill plan.

    When the schedule carries media-fault plans ({!Schedule.has_faults}),
    the harness arms them on the device before the workload starts, aimed
    at the system's checksummed metadata regions
    ({!Runtime.System.metadata_regions}).  The oracle is {e no silent
    corruption}: every injected fault must be repaired, quarantined or
    reported — a wrong answer is a [Fail] finding as always, and damage
    recovery cannot degrade around surfaces as [Fatal] (acceptable for a
    faulted schedule, a finding otherwise). *)

type stats = { eras : int; crashes : int }

type verdict =
  | Pass
  | Fail of string  (** Deterministic failure reason. *)
  | Fatal of string
      (** Recovery refused the image ({!Runtime.Driver.Unrecoverable}):
          detected damage beyond repair.  The loud-failure outcome — the
          opposite of silent corruption. *)

type outcome = {
  verdict : verdict;
  stats : stats;
  crash_points : (int * int) list;
      (** (era, at_op) for every crash that fired, in order — turns
          probabilistic era plans into replayable [At_op] points. *)
  history : Verify.History.t option;
      (** The CAS history of an rcas run (whatever the verdict), for
          serialisation as a [verify_history]-ingestible artifact. *)
  fingerprint : string;
      (** Canonical digest of the run's observable end state: the
          structure's surviving content plus every per-op answer in
          submission order ([""] when the run died on an exception).  Two
          runs with equal fingerprints are indistinguishable to a client;
          [Mc.Explore.check_equivalence] compares the fingerprint sets
          reachable under eager and coalesced flushing. *)
  recovery : Runtime.Recovery_report.t;
      (** Aggregate of every media repair performed across the run's
          recoveries (truncated stack tails, rewritten arena headers,
          quarantined arenas); {!Runtime.Recovery_report.empty} when the
          run died before the driver reported. *)
  interleave : int list;
      (** The worker chosen at each scheduling point, across eras, in
          order, up to the last choice {!Runtime.Coop.default_decision}
          would not have made: replaying the schedule with this list as its
          [interleave] repeats the run exactly.  Empty for a one-worker
          case. *)
}

type event =
  | Driver of Runtime.Driver.event
      (** [Era_armed], [Crash_fired] or [Recovery_repaired]. *)
  | Decision of Runtime.Coop.point * Runtime.Coop.decision
      (** A scheduling decision, prefix included, before the chosen worker
          runs. *)

val max_crashes : int
(** The crash budget of one run (1000): a schedule that crashes more often
    fails the case. *)

val run :
  ?decide:(unit -> Runtime.Coop.point -> Runtime.Coop.decision) ->
  ?device_size:int ->
  ?flush_mode:Nvram.Pmem.flush_mode ->
  ?break_drain:bool ->
  ?sabotage:bool ->
  ?observer:(event -> unit) ->
  Workload.t ->
  Schedule.t ->
  outcome
(** [run workload schedule] executes the case.  [decide ()] makes the
    policy that picks past the [interleave] prefix (default
    {!Runtime.Coop.default_decision}: how a reproducer replays).  It is
    called afresh per execution, so the re-run after an orchestrator kill
    repeats the killed run's choices.  The campaign passes a seeded
    {!Runtime.Coop.random_decision}, the model checker its search.
    [device_size] overrides the 2 MiB default
    (model-checking runs use a small device: thousands of executions, each
    with a fresh image).

    [flush_mode] (default [Eager]) selects the device's flush behaviour —
    note that every kind except [Faulty] and [Rcounter] runs on an
    auto-flush device, where coalescing is inert.  [break_drain] (default
    [false]) arms {!Nvram.Pmem.unsafe_break_drain} on the fresh device, for
    tests that must watch the equivalence check catch a sabotaged
    coalescer.  [sabotage] (default [false]) disables checksum
    {e verification} ({!Nvram.Integrity.unsafe_set_enabled}) for the
    duration of the run — the self-check that proves a fault campaign's
    oracle has teeth: with verification off, an injected-fault campaign
    must start producing findings.

    [observer] sees every driver event, after the harness's own
    bookkeeping, and every scheduling decision — the model checker's
    trace-property layer uses it to see accesses and crashes in
    event-stream order. *)
