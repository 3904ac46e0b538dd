(** The running example of Section 5.2, end to end:

    + generate a random workload of CAS operations (wide or narrow operand
      range);
    + start the system in normal mode and submit the descriptors;
    + run 4 (configurable) workers executing the CAS operations through
      the persistent-stack runtime;
    + crash the system at scheduled moments;
    + restart in recovery mode, complete the interrupted operations,
      return to normal mode, and repeat until every operation finished;
    + read the answers and the final register value and verify the
      execution for serializability.

    With [variant = Correct] every execution must be serializable; with
    [variant = Buggy] (the announcement matrix removed) executions with
    value collisions are expected to be caught as non-serializable.

    An experiment is a fuzz case: {!run} maps the spec to a
    {!Fuzz.Workload.t} ([rcas] or [rcas-buggy] on the spec's stack kind)
    and a {!Fuzz.Schedule.t} (one crash plan per era) and executes it with
    {!Fuzz.Harness.run}, which also checks the heap after every recovery.
    The workers are cooperative fibers that a uniform-random policy seeded
    from [spec.seed] interleaves at every persistence operation, so an
    execution — its interleaving, crash points, history and verdict — is a
    function of its spec, and its {!outcome.reproducer} replays it. *)

type crash_mode =
  | No_crashes
  | Every_ops of int
      (** Crash when the era's persistence-operation counter reaches the
          given value — deterministic: era [i]'s plan is [At_op n]. *)
  | Random_ops of float
      (** Per-operation crash probability: era [i]'s plan is [Random]
          seeded with [spec.seed * 7919 + i]. *)

type spec = {
  n_ops : int;
  range : Verify.Generator.range;
  seed : int;
  workers : int;
  variant : Recoverable.Rcas.variant;
  crash_mode : crash_mode;
  stack_kind : Runtime.System.stack_kind;
}

val default_spec : spec
(** 64 operations, narrow range, 4 workers, correct CAS, a crash every
    400 device operations, bounded stacks. *)

type outcome = {
  spec : spec;
  history : Verify.History.t;
  verdict : Verify.Serializability.verdict;
  eras : int;
  crashes : int;
  reproducer : Fuzz.Reproducer.t;
      (** The run as a fuzz case: its workload, and its schedule with the
          policy's choices as the [interleave] prefix.
          {!Fuzz.Reproducer.replay} repeats the run, and {!Fuzz.Shrink}
          can shrink a flagged one. *)
}

val run : ?device_size:int -> spec -> outcome
(** Runs the experiment on a fresh in-memory device (4 MiB by default) in
    the cache-less (auto-flush) mode that Section 5 prescribes for the CAS
    algorithm.  Fails if the run ends without a CAS history: a recovery
    that refused the image or a broken heap. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One summary line: workload, crash count, verdict. *)

(** {1 Timed executions}

    The paper's future-work direction 2 asks about verifying CAS
    executions for linearizability and sequential consistency.  This
    repository implements exact checkers for small histories
    ([Verify.Linearizability]); [run_timed] connects them to real
    executions: it runs a crash-free concurrent workload while recording
    each operation's invocation and response on a logical clock, producing
    a timed history the checkers accept.

    Timestamps live in volatile memory, so this mode does not support
    crashes (a crash would lose the clock); serializability remains the
    crash-tolerant verification, exactly as in the paper. *)

val run_timed :
  ?device_size:int -> spec -> Verify.History.timed_op list * int
(** [run_timed spec] executes the workload (ignoring [spec.crash_mode])
    and returns the timed history and the register's initial value.  Keep
    [spec.n_ops] small: the exact checkers are exponential. *)
