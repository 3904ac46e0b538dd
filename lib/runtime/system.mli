(** The system architecture of Section 4.3.

    A system owns a persistent-memory device and lays it out as:

    {v
    superblock  | per-worker stack anchors | task table | worker stacks
    (config)    | (unbounded kinds)        |            | (bounded kind)
                                                        | heap (rest)
    v}

    In {e standard mode} ({!create} then {!run}) the main thread
    initialises the heap and [N] persistent stacks, starts [N] worker
    domains ([Domain.spawn] — one runtime lock each, so workers execute in
    parallel on a multicore host against the striped device), and feeds
    them tasks through a volatile producer-consumer queue backed by the
    persistent task table.

    In {e recovery mode} ({!attach} then {!recover}) it re-attaches
    every structure from the superblock, starts one recovery domain per
    worker stack, and waits for them to complete the interrupted
    operations; repeated failures during recovery resume where the
    previous recovery stopped, because every finished frame was already
    popped.

    Every task is executed under a reserved {e task wrapper} function whose
    frame outlives the task's own call: its recover function re-runs or
    completes the task and persists the answer in the task table, so a task
    is marked done exactly once even if the crash lands between the task's
    completion and the bookkeeping. *)

type stack_kind =
  | Bounded_stack of int  (** fixed per-worker capacity, bytes *)
  | Resizable_stack of int  (** initial capacity, bytes (Appendix A.2) *)
  | Linked_stack of int  (** block size, bytes (Appendix A.3) *)

type config = {
  workers : int;
  stack_kind : stack_kind;
  task_capacity : int;  (** max number of tasks *)
  task_max_args : int;  (** max argument bytes per task *)
}

val default_config : config
(** 4 workers (as in Section 5.2), bounded 4096-byte stacks, 1024 tasks of
    up to 64 argument bytes. *)

type t

type spawn = (int -> unit) -> int -> unit
(** A worker-execution strategy: [spawn body n] runs [body 0] …
    [body (n-1)] to completion.  The bodies never raise (crash signals are
    swallowed and other failures captured before the strategy sees them),
    so a strategy only decides {e where and in what order} workers run.
    The default strategy starts one domain per worker behind a start
    barrier; {!Coop.spawn} is the cooperative single-threaded one that
    steps workers as effect fibers, one persistence operation at a time. *)

exception Worker_failures of (int * exn) list
(** Raised by {!run} and {!recover} when {e several} worker domains failed
    with an exception other than the crash signal, carrying every
    [(worker index, exception)] pair.  A single failure is re-raised as
    itself.  A printer is registered, so the aggregate renders each
    worker's failure. *)

val create : Nvram.Pmem.t -> registry:Exec.t Registry.t -> config:config -> t
(** [create pmem ~registry ~config] formats the device for a fresh system:
    writes the superblock, creates the task table, the heap and one
    persistent stack per worker.  The configuration is persisted, so
    {!attach} needs no configuration argument. *)

val attach :
  ?report:(Recovery_report.item -> unit) ->
  Nvram.Pmem.t ->
  registry:Exec.t Registry.t ->
  t
(** [attach pmem ~registry] reopens a system after a restart: reads the
    superblock (verifying its checksum), re-attaches the task table and the
    stacks, and attaches the heap with {!Nvheap.Heap.recover}, which repairs
    arena headers but walks no arena: the heap's one sweep runs at the end
    of {!recover}.  Media damage found on the way — truncated stack tails,
    rewritten arena headers — is passed to [?report] in order (default:
    ignored; the [Obs.Counters] fault counters tick either way), and so is
    an arena quarantined later, when a sweep finds its tiling unwalkable.

    @raise Invalid_argument if the device holds no system superblock or the
    superblock checksum does not verify.
    @raise Pstack.Repair.Corrupt_stack if a worker stack is damaged beyond
    tail truncation (corrupt dummy frame or anchor). *)

val metadata_regions : t -> (int * int) array
(** [(offset, length)] regions holding checksummed metadata — the system
    superblock's config fields, bounded stack regions, the heap superblock
    and each arena header.  A bitflip inside any of them is guaranteed to
    be detected (and repaired, quarantined or reported) by the recovery
    paths; the fault-injecting fuzzer aims its bit rot here so the
    no-silent-corruption oracle is airtight. *)

val config : t -> config
val pmem : t -> Nvram.Pmem.t
val heap : t -> Nvheap.Heap.t
val tasks : t -> Task.t

val ctx : t -> int -> Exec.t
(** [ctx t i] is worker [i]'s execution context — for single-threaded use
    of the call protocol outside {!run} (examples, tests). *)

val submit : t -> func_id:int -> args:bytes -> int
(** Persistently appends a task; returns its index. *)

val run : ?spawn:spawn -> t -> [ `Completed | `Crashed ]
(** [run t] executes every pending task on the worker domains (or on the
    strategy given as [spawn]) and returns
    [`Completed] when all are done, or [`Crashed] as soon as a simulated
    crash stopped the workers (the caller then goes through
    [Pmem.crash]/[Pmem.restart]/{!attach}/{!recover}).

    A worker that receives [Nvram.Crash.Thread_killed] from an armed
    individual-crash plan restarts alone (the individual crash-recovery
    model of Section 2.2): it re-attaches its stack from the device,
    replaces its execution context and completes its interrupted
    operations while the other workers keep running.

    Any exception other than the crash signal raised by a task body is
    re-raised after all workers stopped; if several workers failed, they
    are re-raised together as {!Worker_failures} so no worker's diagnostic
    is dropped. *)

val recover :
  ?spawn:spawn ->
  ?reclaim:(unit -> Nvram.Offset.t list) ->
  t ->
  [ `Completed | `Crashed ]
(** [recover t] runs one recovery domain per worker stack (parallel
    recovery, Section 4.3; [spawn] substitutes the execution strategy as in
    {!run}) and returns [`Completed] when every interrupted
    operation has been completed and popped.

    A successful recovery ends with one sweep of every heap arena, which
    coalesces free blocks and rebuilds the free index
    ({!Nvheap.Heap.sweep}).  If [reclaim] is given, the same sweep also
    frees every heap block that is referenced neither by a stack nor by
    the extra roots [reclaim ()] ({!Nvheap.Heap.retain}) — closing the
    allocation/resize leak windows (Appendix A; DESIGN.md section 4). *)

val results : t -> (int * int64 option) list
(** Answers of all submitted tasks, [None] for tasks not yet completed. *)

(** {1 User root}

    One 8-byte superblock cell for the application's own persistent root
    (e.g. the offset of an experiment's register), so applications need no
    private well-known locations. *)

val set_root : t -> Nvram.Offset.t -> unit
val root : t -> Nvram.Offset.t option

(** {1 Inspection}

    Image-level helpers: they read a device that need not be attachable
    (the whole point of {!Scrub} and [pstack_inspect] is triaging damaged
    images), deriving every location from the persisted configuration. *)

val image_config : Nvram.Pmem.t -> config
(** The persisted configuration of the image on [pmem].

    @raise Invalid_argument if there is no superblock or its checksum does
    not verify. *)

val bounded_region : config -> int -> Nvram.Offset.t * int
(** [(base, capacity)] of worker [i]'s stack region.

    @raise Invalid_argument for non-bounded configurations. *)

val image_stack : Nvram.Pmem.t -> config -> int -> Pstack.Dump.line list
(** [image_stack pmem config i] is worker [i]'s stack, dumped in the
    volatile view ({!Pstack.Dump}) from wherever its kind keeps it: the
    fixed region of a bounded stack, or the heap block its superblock
    anchor names.

    @raise Invalid_argument if the stack's anchor or a frame's fields lead
    outside the device. *)

val attach_stack :
  ?report:(Pstack.Repair.event -> unit) ->
  Nvram.Pmem.t ->
  config ->
  Nvheap.Heap.t ->
  int ->
  Exec.stack
(** [attach_stack pmem config heap i] re-attaches worker [i]'s stack the
    way {!attach} does, truncating a torn tail in place and passing each
    repair to [report].

    @raise Pstack.Repair.Corrupt_stack if the stack is damaged beyond tail
    truncation. *)

val image_heap_base : Nvram.Pmem.t -> config -> Nvram.Offset.t
(** Device offset of the heap region for this configuration. *)

val image_root : Nvram.Pmem.t -> Nvram.Offset.t option
(** The persisted user root of the image on [pmem] without attaching it —
    how a restarting server decides between {!attach} (root present: the
    previous incarnation committed its structures) and {!create} (no
    superblock magic, or a crash before the root was published).

    @raise Invalid_argument if the superblock magic is present but its
    checksum does not verify: the image is damaged, not fresh, and must
    not be formatted over. *)

val pp_image : Format.formatter -> Nvram.Pmem.t -> unit
(** [pp_image fmt pmem] prints a human-readable summary of the system
    image on [pmem]: the persisted configuration, the user root, task
    counts and statuses, each worker's decoded stack, and the heap block
    map.  Reads the {e currently visible} content; does not modify the
    image.

    @raise Invalid_argument if the device holds no system superblock. *)
