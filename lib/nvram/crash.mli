(** Crash scheduling for the simulated NVRAM device.

    The paper emulates system failures by killing the process at a random
    moment (Section 5.2).  In-process simulation gives us strictly more
    control: every persistence-relevant operation performed on the device —
    a write, a flush of one line, or a hardware CAS; reads are excluded
    because a crash between two reads leaves the same persistent state as
    one just before the next write — consults a crash controller, and the
    controller decides whether the crash event fires {e before} that
    operation takes effect.  This makes crash
    points deterministic (reproducible from a seed or an operation index) and
    allows exhaustive enumeration of crash points in tests.

    The controller is shared by all worker threads of a system.  Once a crash
    fires, every subsequent operation on the device raises {!Crash_now} as
    well, so all workers stop promptly — modelling the {e system}
    crash-recovery model of Section 2.2 in which the whole machine fails at
    once. *)

exception Crash_now
(** Raised by device operations when the simulated system has crashed.  The
    operation that raises did {e not} take effect. *)

exception Thread_killed
(** Raised by a device operation to the {e one} thread whose operation
    triggered an individual-crash plan (see {!arm_kill}).  The rest of the
    system keeps running: this models the individual crash-recovery model
    of Section 2.2, where a single process fails and later recovers while
    the others continue. *)

type plan =
  | Never  (** No scheduled crash (crashes can still be {!trigger}ed). *)
  | At_op of int
      (** [At_op n] crashes immediately before the [n]-th persistence
          operation (1-based): that operation and all later ones do not take
          effect.  Used to enumerate crash points exhaustively. *)
  | Random of { seed : int; probability : float }
      (** Before every operation, crash with the given probability, using a
          deterministic PRNG seeded with [seed]. *)

type t

val create : ?plan:plan -> unit -> t
(** [create ()] is a controller with plan {!Never}. *)

val arm : t -> plan -> unit
(** [arm t plan] installs [plan] and resets the operation counter (but not
    the crashed flag; see {!reset}). *)

val step : t -> unit
(** [step t] records one persistence operation.  Raises {!Crash_now} if the
    system is already crashed or if the plan fires on this operation. *)

val check : t -> unit
(** [check t] raises {!Crash_now} if the system is crashed, without counting
    an operation. *)

val trigger : t -> unit
(** [trigger t] crashes the system immediately (does not raise). *)

val crashed : t -> bool
(** [crashed t] is [true] iff a crash has fired and {!reset} has not been
    called since. *)

val reset : t -> unit
(** [reset t] clears the crashed flag and disarms both the crash and the
    individual-crash plans ([Never]), modelling the restart of the machine.
    Every piece of scheduling state restarts from scratch: the operation
    counters, the kill tally of {!kills_fired}, {e and} the PRNG states —
    so a seeded [Random] plan armed after a reset replays its schedule
    from the seed rather than resuming mid-sequence, making seeded crash
    schedules reproducible across restarts. *)

val ops : t -> int
(** [ops t] is the number of operations recorded since the last {!arm} or
    {!reset}. *)

(** {1 Scheduler hook}

    Systematic model checking (lib/mc) needs a scheduling decision at the
    {e same} per-operation points this controller counts.  The hook fires at
    the entry of every persistence operation — before the device takes any
    stripe lock, so a cooperative scheduler may suspend the calling fiber
    there without holding device mutexes.  Every invocation carries the
    {e access footprint} of the operation about to run, which is what
    dynamic partial-order reduction needs to decide whether two operations
    commute. *)

type access_kind =
  | Write  (** A store of any width ([write_bytes], [write_int], …). *)
  | Flush  (** An explicit write-back request of a line range. *)
  | Cas  (** A hardware compare-and-swap: read and store of one word. *)

type access = {
  kind : access_kind;
  first_line : int;  (** First cache line covered, inclusive. *)
  last_line : int;  (** Last cache line covered, inclusive. *)
  persists : bool;
      (** The operation itself makes its lines durable: [true] for flushes
          and for writes/CAS on an auto-flush device, [false] for stores
          that only dirty the volatile cache. *)
}

val set_scheduler : t -> (access -> unit) option -> unit
(** [set_scheduler t (Some f)] installs [f] to be called at every
    persistence-operation entry with that operation's footprint;
    [set_scheduler t None] removes it (and drops any pending read log).
    Not thread-safe: intended for single-threaded cooperative runs only. *)

val sched_point :
  t -> kind:access_kind -> first_line:int -> last_line:int -> persists:bool ->
  unit
(** [sched_point t ~kind ~first_line ~last_line ~persists] invokes the
    installed scheduler callback, if any, with the given footprint.  Called
    by the device at persistence-operation entry points; allocation-free
    no-op when no callback is installed. *)

val note_read : t -> first_line:int -> last_line:int -> unit
(** [note_read t ~first_line ~last_line] records that the device read the
    given cache-line range.  Reads are not scheduling points (a crash
    between two reads leaves the same persistent state), but the reduction
    needs them to detect read/write races between coarser transitions; the
    log is only maintained while a scheduler is installed, so free-running
    reads pay a single branch. *)

val take_reads : t -> (int * int) list
(** [take_reads t] returns the line ranges read since the last call (most
    recent first) and clears the log.  The cooperative scheduler calls it
    after each fiber step to attribute the reads to the transition that
    just executed. *)

val plan : t -> plan
(** [plan t] is the currently armed crash plan — together with {!ops} it is
    enough to record where a schedule stood, so that tooling (the crash
    fuzzer) can replay a probabilistic plan as a deterministic [At_op]
    point. *)

(** {1 Plan serialisation}

    Textual encoding used by replayable crash-schedule artifacts:
    ["never"], ["at-op N"], or ["random SEED PROBABILITY"]. *)

val plan_to_string : plan -> string

val plan_of_string : string -> (plan, string) result
(** Inverse of {!plan_to_string} (tolerates extra whitespace); [Error msg]
    on anything else. *)

(** {1 Media-fault plans}

    Crash plans decide {e when} the machine dies; fault plans decide
    whether the media misbehaves around those deaths.  Both sub-plans reuse
    {!plan} but count {e different events} than crash plans count:

    - [tear] counts {e crash events} — when the [n]-th crash fires (or a
      seeded coin decides for this crash), the cache line whose persist the
      crash interrupted is torn: a deterministic prefix survives and the
      rest of the line is shredded with seeded garbage, instead of the
      all-or-nothing line persistence the device normally guarantees.
    - [bitflip] counts {e restarts} — after the device reboots, it flips a
      seeded number of persisted bits inside the configured target regions
      (bit rot at rest).

    [fault_seed] derives every PRNG involved, so a fault schedule replays
    exactly, like crash schedules.  Fault plans are armed on the {e device}
    ({!Pmem.arm_faults}), not on this controller: {!reset} models a machine
    restart and must not disarm media behaviour. *)

type fault_plan = { tear : plan; bitflip : plan; fault_seed : int }

val no_faults : fault_plan
(** [{ tear = Never; bitflip = Never; fault_seed = 0 }]. *)

val has_faults : fault_plan -> bool
(** Whether either sub-plan can ever fire. *)

val pp_fault_plan : Format.formatter -> fault_plan -> unit

(** {1 Individual crashes}

    A second, independent plan that kills the single thread whose
    persistence operation trips it, leaving the device and every other
    thread untouched.  One-shot: the plan disarms when it fires, so exactly
    one thread receives {!Thread_killed} per arming. *)

val arm_kill : t -> plan -> unit
(** [arm_kill t plan] installs an individual-crash plan with its own
    operation counter. *)

val kills_fired : t -> int
(** Number of individual crashes delivered since creation or the last
    {!reset}. *)
