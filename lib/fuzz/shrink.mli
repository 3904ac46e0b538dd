(** Shrink a failing fuzz case to a minimal reproducer.

    Greedy fixpoint over strictly-size-reducing candidates, each validated
    by re-running the case; a candidate is kept only if it still fails.
    Reductions, tried largest-first:

    - {b concretise}: pin each era plan to the [At_op] crash point
      actually observed, or to [Never] for an era that did not crash,
      turning the schedule replayable and dropping eras it never used;
    - {b fewer ops}: delta-style removal of chunks of the op trace
      (halves, then quarters, down to single ops);
    - {b fewer workers}: drop to one worker, else one fewer;
    - {b smaller schedule}: drop the kill plan, drop trailing eras, halve
      [At_op] crash points (earlier crashes), drop the tear and bitflip
      fault plans (a failure that survives without them was never about
      the media fault), drop the interleaving prefix (a failure that
      reproduces under the default policy was never about the exact
      interleaving).

    Candidates that mutate the workload (fewer ops, fewer workers) keep the
    schedule's interleaving prefix, so a failure that needs its
    interleaving can shrink: the prefix no longer describes the candidate's
    execution choice for choice, but the candidate is re-run before it is
    accepted, and a choice naming a worker that is not runnable falls to
    the policy.  An accepted candidate's prefix becomes the choices its run
    made, which replay it and are never longer.  The measure counts the
    prefix and its [por]/[reversal] metadata, so dropping a prefix that
    turns out to be noise is itself a shrink.

    A candidate whose verdict is [Fatal] validates only if its schedule
    carries no fault plans: under armed faults a loud refusal to recover
    is an acceptable outcome, and accepting it would shrink the actual
    finding away.

    Every candidate is strictly smaller under a fixed measure, so the
    fixpoint terminates even without the attempt budget. *)

type result = {
  workload : Workload.t;
  schedule : Schedule.t;
  outcome : Harness.outcome;
      (** Outcome of the minimal case — a [Fail] or [Fatal]. *)
  attempts : int;  (** Harness runs spent shrinking. *)
}

val measure : Workload.t -> Schedule.t -> int
(** The size every candidate strictly decreases: ops dominate, then
    workers, then crash plans ([Random] outweighs any [At_op], so
    concretising is always a decrease), then the interleaving prefix and
    its metadata.  Exposed for regression tests pinning the ordering. *)

val concretize : Schedule.t -> Harness.outcome -> Schedule.t option
(** Replace each era plan with the [At_op] crash point the outcome
    actually observed in that era, or with [Never] when the era did not
    crash, and drop trailing [Never]s ([None] when that changes nothing).
    Exposed for regression tests (a concretised plan must weigh less than
    the [Random] it replaces, whatever the observed op number). *)

val shrink :
  ?max_attempts:int ->
  ?sabotage:bool ->
  Workload.t ->
  Schedule.t ->
  Harness.outcome ->
  result
(** [shrink workload schedule outcome] minimises a case whose [outcome]
    was a failure.  [max_attempts] bounds the number of validation re-runs
    (default 150); on exhaustion the best case found so far is returned.
    [sabotage] is forwarded to every validation re-run, so a failure found
    under disabled checksum verification shrinks in the same regime.
    Every candidate runs through [Harness.run] under the default policy:
    one that keeps its [interleave] prefix replays exactly the execution
    the prefix records, so a fuzz failure and a model-checker reproducer
    shrink alike.  Raises [Invalid_argument] if [outcome] is a pass. *)
