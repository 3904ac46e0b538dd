(** Fuzz workloads: a recoverable structure, a worker count, and a
    deterministic trace of operations submitted as runtime tasks.

    Four kinds exercise the real structures of [lib/recoverable].  Two more
    are deliberately broken: {!Rcas_buggy} is the paper's buggy recoverable
    CAS (E3 — no announcement matrix, so a recovered operation can lose its
    success), and {!Faulty} is a broken recoverable counter (its recovery
    re-runs a completed increment instead of checking evidence) — the
    fuzzer's own planted bug, used to validate that the search finds
    schedule-dependent failures and that shrinking produces minimal
    reproducers.  {!Rcounter} is the {e correct} twin of {!Faulty}: a
    recoverable counter on a cached (non-auto-flush) device whose body is
    idempotent per op ordinal (op [i] moves the counter from [i] to [i+1],
    guarded by a read), so its recovery is crash-safe — it exists because
    the cached device is the only place flush coalescing has observable
    persistence effects, making it the natural non-vacuous workload for the
    eager/coalesced equivalence check of [Mc.Explore].

    Workloads serialise to the line-based reproducer format:

    {v
    kind rqueue
    workers 2
    init 0
    stack linked 256
    op enq 100
    op deq
    v}

    A workload without a [stack] line runs on {!default_stack}. *)

type kind = Rstack | Rqueue | Rmap | Rcas | Rcas_buggy | Faulty | Rcounter

type op =
  | Push of int  (** rstack *)
  | Pop
  | Enqueue of int  (** rqueue *)
  | Dequeue
  | Put of int * int  (** rmap: key, value *)
  | Remove of int
  | Cas of int * int  (** rcas: expected, desired *)
  | Bump  (** counter increment (faulty and rcounter) *)

type t = {
  kind : kind;
  workers : int;
  init : int;  (** Initial register value (rcas); [0] otherwise. *)
  stack : Runtime.System.stack_kind;  (** The workers' persistent stack. *)
  ops : op list;
}

val correct_kinds : kind list
(** The kinds whose implementation is correct (fuzz campaigns expect them
    to pass), i.e. everything except the planted-bug kinds {!Rcas_buggy}
    and {!Faulty}. *)

val kind_to_string : kind -> string
val kind_of_string : string -> (kind, string) result

val stacks : Runtime.System.stack_kind list
(** Each stack kind at its default size — bounded 4096, resizable 256,
    linked 256 — the kinds a campaign draws from. *)

val default_stack : Runtime.System.stack_kind
(** Bounded 4096, the first of {!stacks}: the stack of a workload that
    names none. *)

val stack_to_string : Runtime.System.stack_kind -> string
(** ["linked 256"]: the kind's name and its size in bytes. *)

val stack_of_string : string -> (Runtime.System.stack_kind, string) result
(** Inverse of {!stack_to_string}; a bare name (["linked"]) is that kind
    of {!stacks}. *)

val generate : kind -> rng:Random.State.t -> n_ops:int -> workers:int -> t
(** Draw an op trace of [n_ops] operations.  Pushed/enqueued values and map
    values are distinct (derived from the op index), so exactly-once
    violations are observable as duplicates.  [Faulty] and [Rcounter]
    workloads are forced to one worker — the planted bug must reproduce
    deterministically, and the correct counter's ordinal oracle assumes
    submission-order execution.  The stack is {!default_stack}. *)

val op_to_string : op -> string
val op_of_string : string -> (op, string) result

val to_lines : t -> string list
val of_lines : string list -> (t, string) result
(** Inverse of {!to_lines}; [Error msg] on a malformed entry. *)

val pp : Format.formatter -> t -> unit
(** One-line digest: kind, workers, op count, and the stack unless it is
    the default — stable across runs. *)
