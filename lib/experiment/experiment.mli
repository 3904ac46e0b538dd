(** The running example of Section 5.2, end to end:

    + generate a random workload of CAS operations (wide or narrow operand
      range);
    + start the system in normal mode and submit the descriptors;
    + run 4 (configurable) worker threads executing the CAS operations
      through the persistent-stack runtime;
    + crash the system at scheduled moments;
    + restart in recovery mode, complete the interrupted operations,
      return to normal mode, and repeat until every operation finished;
    + read the answers and the final register value and verify the
      execution for serializability.

    With [variant = Correct] every execution must be serializable; with
    [variant = Buggy] (the announcement matrix removed) executions with
    value collisions are expected to be caught as non-serializable. *)

type crash_mode =
  | No_crashes
  | Every_ops of int
      (** Crash when the era's persistence-operation counter reaches the
          given value — deterministic. *)
  | Random_ops of float
      (** Per-operation crash probability (seeded from the spec). *)

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
  flushes : int;
      (** lines persisted over the whole run: the ledger's [lines_flushed]
          delta *)
}

val run : ?device_size:int -> spec -> outcome
(** Runs the experiment on a fresh in-memory device in the cache-less
    (auto-flush) mode that Section 5 prescribes for the CAS algorithm. *)

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
