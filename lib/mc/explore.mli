(** Systematic state-space exploration: interleaving and crash-point
    enumeration under iterative context bounding (CHESS-style; Musuvathi &
    Qadeer, PLDI 2007), reduced by default with dynamic partial-order
    reduction (Flanagan & Godefroid, POPL 2005) plus sleep sets.

    One {e execution} is a full crash-restart run of a workload under the
    cooperative scheduler ({!Runtime.Coop}), driven by a {e decision
    vector}: the worker chosen at each persistence-operation scheduling
    point, or a crash injected there.  The explorer performs a stateless DFS over
    decision vectors — re-executing from scratch with a longer prefix each
    time — and covers

    - every interleaving whose number of {e preemptions} (switching away
      from a still-live worker) is at most the bound; switches at worker
      completion and the initial choice are free, as is crash injection;
    - for every reached scheduling point along the way, the single-crash
      vector that crashes there (post-crash recovery runs under the
      deterministic default schedule).

    With [por = true] (the default) the DFS walks one representative per
    Mazurkiewicz-trace equivalence class of the crash-free interleavings:
    each scheduling point carries the {e footprint} of the transition it
    starts (cache-line range and kind of the pending store, plus the lines
    read before the next point — see {!Runtime.Coop.point} and {!Por}), and
    at backtrack time only race-reversing alternatives are pushed, with sleep
    sets suppressing commuting siblings.  Alternatives whose reversal would
    exceed the preemption bound are conservatively re-seeded at the latest
    earlier free-switch point (bounded-DPOR style; Coons, Musuvathi &
    McKinley, OOPSLA 2013), so bounding stays sound.  Crash placements are
    not reduced {e per walked trace} — every decision point of every
    explored interleaving still gets its crash leaf — but interleavings
    pruned as equivalent are pruned with their crash points: two equivalent
    crash-free traces can pass through distinct intermediate persistence
    states, so crash-state coverage under reduction is a heuristic, not a
    theorem (DESIGN.md §13).  [por = false] keeps the exhaustive
    enumeration; the differential tests run both and compare findings.

    Every terminal state passes through the fuzzer's oracles
    ([Fuzz.Harness]: recovery invariants, serializability for CAS
    workloads), then the trace-property monitors ({!Prop}, when given),
    then an optional user check; the first failure stops the search with a
    replayable schedule, and an exhausted search returns a certificate with
    the explored-state counts. *)

type config = {
  preempt_bound : int;  (** Maximum preemptions per interleaving. *)
  max_executions : int;
      (** Search budget; {!Budget_exhausted} when exceeded. *)
  max_points : int;
      (** Per-execution decision cap — a runaway guard, far above any
          finite workload.  Exceeding it ends the search with
          {!Budget_exhausted} carrying the stats so far (it must never
          surface as an exception or a spurious violation). *)
  device_size : int;  (** Fresh-device size per execution, bytes. *)
  flush_mode : Nvram.Pmem.flush_mode;
      (** Flush behaviour of every fresh device the search creates.
          Only observable for workload kinds running on a cached device
          ([Faulty], [Rcounter]); the rest are auto-flush. *)
  broken_drain : bool;
      (** Arm [Pmem.unsafe_break_drain] on every fresh device — for tests
          that must watch {!check_equivalence} catch a sabotaged
          coalescer. *)
  por : bool;
      (** Dynamic partial-order reduction (default [true]); [false] is the
          exhaustive brute-force enumeration. *)
}

val default_config : config
(** Preemption bound 2, 200k executions, 128 KiB device, eager flushing,
    drains intact, reduction on. *)

type stats = {
  executions : int;  (** Complete runs performed. *)
  points : int;  (** Scheduling decisions taken, summed over runs. *)
  crash_placements : int;  (** Runs whose vector injected a crash. *)
  deepest : int;  (** Longest recorded decision vector. *)
  races : int;
      (** Race reversals queued by the reduced search (backtrack-set
          insertions); 0 under brute force. *)
  sleep_skips : int;
      (** Subtrees skipped because a sleep set proved them equivalent to an
          explored sibling; 0 under brute force. *)
}

type violation = {
  reason : string;  (** Oracle or property failure message. *)
  schedule : Fuzz.Schedule.t;
      (** Replayable adversary: [interleave] prefix, the crash as an
          [At_op] era plan, the bound in [preempt], and — for the reduced
          search — [por]/[reversal] metadata recording which backtrack
          points produced it. *)
  outcome : Fuzz.Harness.outcome;
}

type verdict =
  | Certified of stats
      (** No violation anywhere within the bounds — the "no violation
          within bounds" certificate, quantified by {!stats}. *)
  | Violation of violation * stats
  | Budget_exhausted of stats

val explore :
  ?config:config ->
  ?check:(Fuzz.Harness.outcome -> (unit, string) result) ->
  ?props:Prop.t list ->
  ?prop_sabotage:bool ->
  Fuzz.Workload.t ->
  verdict
(** Deterministic: no randomness anywhere — same workload, same verdict,
    same counts, every run.  [props] (default none) are instantiated
    afresh for every execution and fed the typed event stream along the
    path; a monitor violation is reported as
    ["property <name>: <message>"], ranked after harness oracle failures
    and before the user [check].  [prop_sabotage] routes the stream
    through [Prop.sabotage_drop_flushes] first — the self-check that the
    property layer has teeth. *)

val replay_checked :
  ?config:config ->
  ?props:Prop.t list ->
  ?prop_sabotage:bool ->
  Fuzz.Reproducer.t ->
  Fuzz.Harness.outcome * (string * string) option
(** [Fuzz.Reproducer.replay] on [config]'s device, with the trace-property
    monitors watching the replayed execution; returns the harness outcome
    and the first monitor violation as [(property name, message)], if any.
    The harness follows the schedule's [interleave] prefix and fires the
    crash from the recorded [At_op] era plan. *)

val reproducer : workload:Fuzz.Workload.t -> violation -> Fuzz.Reproducer.t
(** Package a violation as a [Fuzz.Reproducer] artifact (standard line
    format, [interleave]/[preempt]/[por]/[reversal] lines included). *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Eager/coalesced equivalence} *)

type equivalence_verdict =
  | Equivalent of { eager : stats; coalesced : stats; distinct_states : int }
      (** Every recovery state reachable under coalesced flushing (within
          the bounds) is also reachable under eager flushing, and both
          phases passed every oracle.  [distinct_states] is the size of the
          eager fingerprint set. *)
  | Divergent of violation * stats
      (** The coalesced phase reached a recovery state outside the eager
          set, or failed an oracle outright — either way the coalescer
          changed observable crash semantics, and the violation carries a
          replayable schedule. *)
  | Equivalence_inconclusive of string
      (** A phase exhausted its budget, or the eager phase failed its own
          oracles (the workload is broken independently of coalescing). *)

val check_equivalence :
  ?config:config ->
  ?broken_drain:bool ->
  ?props:Prop.t list ->
  Fuzz.Workload.t ->
  equivalence_verdict
(** [check_equivalence workload] runs the exhaustive search twice — once
    eager collecting the set of reachable recovery-outcome fingerprints
    (see [Fuzz.Harness.outcome]), once coalesced checking membership — and
    certifies the subset relation that makes flush coalescing sound:
    coalescing may only {e remove} reachable persistence states (a pending
    line dies at a crash where an eager flush had already persisted it),
    never add one.  [config]'s [flush_mode]/[broken_drain] fields are
    overridden per phase; [broken_drain] (default [false]) arms the
    sabotage hook in the {e coalesced} phase only, to demonstrate the check
    fires.  [props] are monitored in both phases.  Crash-point numbering
    and scheduling footprints are identical in both flush modes, so the two
    phases walk the same decision tree (reduced or not) and their stats are
    comparable.  Deterministic, like {!explore}. *)
