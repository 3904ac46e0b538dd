(** Simulated byte-addressable persistent memory with a volatile cache.

    This is the hardware model of Sections 1–2 of the paper:

    - the device is a byte-addressable region of a fixed size;
    - writes land in a {e volatile} cache organised in lines;
    - {!flush} persists whole cache lines; persisting one line is atomic
      (never torn by a crash) — {e unless} a torn-write fault plan is armed
      with {!arm_faults}, in which case the one line whose persist the
      crash interrupts may be torn into a survived prefix, shredded bytes,
      and old content;
    - at a crash, every dirty (written but unflushed) line is either lost or
      — modelling spontaneous cache write-back — persisted, according to the
      device's {!policy}; everything previously persisted survives.

    A write that spans several cache lines is {e not} atomic: the crash
    scheduler is consulted once per touched line, so a crash can tear a
    multi-line write between lines (Fig. 5 of the paper).

    With [auto_flush = true] the device persists every write immediately,
    emulating an NVRAM without a volatile cache — the model assumed by the
    CAS algorithm of Section 5.

    All operations are linearizable, which models x86-TSO-style atomic
    cache-line access closely enough for the protocols in this repository.
    Internally the device is {e striped}: cache lines are partitioned over a
    fixed set of locks (a hash of the line index picks the stripe), so
    operations on disjoint lines proceed in parallel across worker domains
    while an operation spanning several lines holds every covering stripe
    for its whole duration.  Whole-device operations ({!crash},
    {!peek_volatile}, {!peek_persistent}, {!dirty_line_count}) take all
    stripes, in ascending order like every other operation, so the locking
    is deadlock-free.  Operations raise {!Crash.Crash_now} once the system
    has crashed, so that all worker domains of a crashed system stop
    promptly.  Every operation is counted in the [Obs.Counters] ledger. *)

type t

type policy =
  | Lose_all  (** Every dirty line is lost at a crash (worst case). *)
  | Lose_none
      (** Every dirty line survives (eADR-like; makes flushes redundant). *)
  | Lose_random of int
      (** Each dirty line independently survives or is lost, decided by a
          deterministic PRNG seeded with the given seed (adversarial
          testing). *)

(** How {!flush} behaves — FliT-style write-behind elision.

    In {!Eager} mode (the default, and the pre-existing behaviour) a flush
    persists its dirty lines on the spot.  In {!Coalesced} mode a flush
    only {e marks} its dirty lines pending; pending lines are written back
    in first-flush order at the next persist barrier — an explicit
    {!persist_barrier}, a dependent read of a pending line, an era boundary
    ({!drain_all}), or implicitly never if a crash intervenes (a pending
    line is still a dirty line and is lost or kept by the crash {!policy}).
    Repeated flushes of the same line between barriers coalesce into one
    write-back, which is where the flush-per-op saving comes from.

    Crash-point numbering is identical in both modes: a coalesced flush
    consults the crash scheduler once per covering line exactly like an
    eager one, so an [At_op] crash plan lands at the same operation either
    way.  Drains are crash-atomic (they contain no crash point), so every
    persistence state reachable under coalescing — the persisted set is
    always a prefix of the flush sequence — is also reachable under eager
    flushing with a crash placed earlier; [Mc.Explore.check_equivalence]
    verifies the observable consequence of this argument exhaustively. *)
type flush_mode = Eager | Coalesced

val create :
  ?line_size:int ->
  ?policy:policy ->
  ?auto_flush:bool ->
  ?flush_mode:flush_mode ->
  ?yield_probability:float ->
  ?backend:Backend.t ->
  size:int ->
  unit ->
  t
(** [create ~size ()] is a fresh device of [size] bytes.  [line_size]
    defaults to 64 and must be a power of two; [policy] defaults to
    {!Lose_all}; [auto_flush] defaults to [false]; [backend] defaults to an
    in-memory image of [size] bytes.

    [yield_probability] (default 0) makes each device operation deschedule
    the calling OS thread with the given probability, so that concurrent
    workers on a machine with few cores interleave at operation granularity
    instead of OS-timeslice granularity — without it, the narrow
    interleaving windows that concurrency protocols defend against
    essentially never occur in simulation.  Set it (e.g. to 0.2–0.5) for
    concurrency experiments. *)

val size : t -> int
val line_size : t -> int
val auto_flush : t -> bool

val flush_mode : t -> flush_mode
(** The device's {!flush_mode}; [Eager] unless {!create} was told
    otherwise.  [auto_flush = true] makes coalescing inert (writes persist
    immediately, so a flush never finds a dirty line to mark). *)

val default_stripes : int
(** Number of device-lock stripes: cache lines hash onto them, so worker
    domains operating on disjoint lines rarely contend.  A device with
    fewer lines uses one stripe per line, rounded down to a power of
    two. *)

val crash_ctl : t -> Crash.t
(** The device's crash controller.  Every persistence mutator (non-empty
    write, flush, or CAS) additionally invokes [Crash.sched_point] on it at
    operation entry — {e before} taking any stripe lock — so a cooperative
    scheduler installed with [Crash.set_scheduler] gets a scheduling
    decision at exactly the operations the controller counts as crash
    points, and may suspend the calling fiber without holding device
    mutexes.  Reads and zero-length operations are not scheduling points,
    mirroring the crash-point rule. *)

(** {1 Data access} *)

val read_byte : t -> Offset.t -> int
(** [read_byte t off] is the byte at [off] (0–255), as currently visible
    (cache content wins over persistent image). *)

val write_byte : t -> Offset.t -> int -> unit
(** [write_byte t off b] stores byte [b] (0–255) at [off] in the cache. *)

val read_bytes : t -> off:Offset.t -> len:int -> bytes
(** [read_bytes t ~off ~len] copies [len] bytes of currently visible
    content.  A zero-length read touches no line; like every zero-length
    operation it consults the crash scheduler exactly once via
    [Crash.check] (so it raises if a crash has already fired) but is never
    itself a crash {e point}, and it still counts as one read call in the
    [Obs.Counters] ledger. *)

val write_bytes : t -> off:Offset.t -> bytes -> unit
(** [write_bytes t ~off data] stores [data] into the cache.  A zero-length
    write follows the same rule as a zero-length read: one [Crash.check],
    never a crash point, one counted write call. *)

val read_int64 : t -> Offset.t -> int64
(** Little-endian 8-byte read. *)

val write_int64 : t -> Offset.t -> int64 -> unit

val read_int : t -> Offset.t -> int
(** [read_int t off] reads an OCaml [int] stored by {!write_int} (8 bytes,
    little-endian). *)

val write_int : t -> Offset.t -> int -> unit

val cas_int64 : t -> Offset.t -> expected:int64 -> desired:int64 -> bool
(** [cas_int64 t off ~expected ~desired] atomically compares the 8-byte word
    at [off] with [expected] and, on equality, replaces it with [desired].
    Returns whether the swap happened.  The word must not cross a cache
    line.  In auto-flush mode a successful swap is persisted immediately. *)

(** {1 Persistence} *)

val flush : t -> off:Offset.t -> len:int -> unit
(** [flush t ~off ~len] persists every cache line intersecting the byte
    range.  Each line is persisted atomically; the crash scheduler is
    consulted once per line, so a crash can land between lines.  A
    zero-length flush persists nothing but still counts as one flush call
    in the [Obs.Counters] ledger — every call counts, whatever its length
    (see counters.mli).
    Like zero-length reads and writes it consults the crash scheduler
    exactly once via [Crash.check]: it raises if a crash has already
    fired, but contributes no crash point of its own. *)

val flush_byte : t -> Offset.t -> unit
(** [flush_byte t off] persists the single line containing [off] — the
    atomic one-byte flush that linearizes stack-end moves (Section 3.4). *)

val persist_barrier : t -> unit
(** [persist_barrier t] drains the calling domain's pending lines — the
    lines its elided flushes marked, written back in first-flush order.
    Linearization points ([Exec.call] completion) call this so an answer
    never externalises before its persistence points have taken effect.
    In {!Eager} mode this is a complete no-op (not even a crash check), so
    eager crash-point numbering and counters are unchanged by barriers
    sprinkled through the runtime.  In {!Coalesced} mode it refuses with
    [Crash.Crash_now] once the system has crashed, like any operation. *)

val drain_all : t -> unit
(** [drain_all t] drains {e every} domain's pending lines — the era
    boundary barrier the {!Driver} issues before arming a new crash plan.
    No-op in {!Eager} mode. *)

val unsafe_break_drain : ?skip:int -> t -> unit
(** [unsafe_break_drain t] sabotages the coalescer for tests: the next
    [skip] (default 1) line drains clear the dirty/pending tags {e without}
    writing the line back, modelling a forgotten write-back.  The
    equivalence check of [Mc.Explore] must demonstrably catch the resulting
    divergence — that is this hook's only purpose. *)

(** {1 Media faults}

    Seeded fault injection on top of the crash scheduler — torn lines at
    crash points and bit rot between eras — with the same replay
    discipline as crash plans: the whole fault schedule is a deterministic
    function of {!Crash.fault_plan} (given a deterministic crash
    schedule), so every fault is a reproducible schedule point.

    Fault plans are device state, not {!Crash} state: {!restart} models a
    reboot and reboots do not repair media, so fault plans survive
    [Crash.reset] and stay armed across every era of a run. *)

val arm_faults : ?targets:(int * int) array -> t -> Crash.fault_plan -> unit
(** [arm_faults t fplan] installs a media-fault plan and resets its
    counters and PRNGs (seeded from [fplan.fault_seed]).

    - [fplan.tear] counts {e crash events}: when the plan fires on the
      [n]-th crash, the cache line whose persist the crash interrupted is
      torn instead of left untouched — a seeded prefix of the in-flight
      bytes persists, up to 8 following bytes are shredded with seeded
      garbage, the rest keep their old durable content.  Only multi-byte
      writes and flushes can tear; the single-word fast paths
      ({!write_byte}, {!write_int64}, {!cas_int64}) model 8-byte hardware
      atomicity and are never torn.
    - [fplan.bitflip] counts {e restarts}: when the plan fires on the
      [n]-th {!restart}, 1–3 seeded bits flip inside [targets] (an array
      of [(offset, length)] regions; empty or omitted = the whole
      device) — bit rot at rest, applied straight to the persistent
      image.

    @raise Invalid_argument if a target region lies outside the device. *)

val fault_plan : t -> Crash.fault_plan
(** The armed fault plan ({!Crash.no_faults} if none). *)

val inject_bitflip : t -> off:Offset.t -> bit:int -> unit
(** [inject_bitflip t ~off ~bit] deterministically flips one persisted bit
    right now, bypassing the plans — the byte-surgery hook corruption
    tests and the scrubber's fixtures are built on. *)

(** {1 Crash simulation} *)

val crash : t -> unit
(** [crash t] applies the crash: each dirty line is persisted or discarded
    according to the device policy, then the volatile cache is emptied so
    that the visible content equals the persistent image.  Idempotent.  Does
    not clear the crashed flag: use {!restart}. *)

val restart : t -> unit
(** [restart t] models the machine rebooting: clears the crashed flag and
    disarms the crash plan.  Must be preceded by {!crash}. *)

val crash_and_restart : t -> unit
(** [crash_and_restart t] is {!crash} followed by {!restart}. *)

(** {1 Introspection (tests and tooling)} *)

val peek_persistent : t -> off:Offset.t -> len:int -> bytes
(** [peek_persistent t ~off ~len] reads the {e persistent} image directly,
    bypassing the cache and the crash scheduler: the bytes that would be
    visible after a crash that loses every dirty line. *)

val peek_volatile : t -> off:Offset.t -> len:int -> bytes
(** [peek_volatile t ~off ~len] reads the currently visible content without
    consulting the crash scheduler or the statistics — for debugging tools
    that must not perturb a crash schedule. *)

val dirty_line_count : t -> int
val is_dirty : t -> Offset.t -> bool

val pending_line_count : t -> int
(** Number of lines marked pending by elided flushes and not yet drained.
    Always 0 on an eager device; [pending_line_count t <= dirty_line_count
    t] on any device (pending implies dirty). *)

val is_pending : t -> Offset.t -> bool

val backend : t -> Backend.t
