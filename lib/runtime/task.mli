(** Persistent task table.

    Section 4.3: the main thread "receives tasks that should be executed by
    the system and adds them to the producer-consumer queue", and after a
    crash the remaining descriptors are re-submitted (Section 5.2, step 7).
    For that to be possible the descriptors and their completion status
    must themselves survive crashes, so they live in this NVRAM-resident
    table.  The volatile producer-consumer queue ({!Work_queue}) only
    carries indices into it.

    Adding a task commits with the flush of the table's count field;
    completing one commits with the flush of its status field (the answer
    is flushed before the status).  A done status is a checksum of the
    task's index and answer, so a crash that tears the status line and
    shreds the answer beside it is detected by {!status} instead of read
    as done.

    {b Domain safety.}  All table state lives on the device, so the striped
    {!Nvram.Pmem} lock is the only synchronisation.  Worker domains may
    call {!mark_done} / {!status} / {!func_id} / {!args} concurrently on
    {e distinct} indices (each task is executed by one worker).  {!add} is
    single-producer: it read-modify-writes the shared count field without a
    lock of its own and must only be called from the main thread, never
    concurrently with itself — which is how {!System} uses it (submission
    happens before the workers start). *)

type t

val region_size : capacity:int -> max_args:int -> int
(** Device bytes needed for a table of [capacity] tasks whose argument
    blobs are at most [max_args] bytes. *)

val create :
  Nvram.Pmem.t -> base:Nvram.Offset.t -> capacity:int -> max_args:int -> t
(** Initialises an empty table at [base]. *)

val attach : Nvram.Pmem.t -> base:Nvram.Offset.t -> t
(** Attaches to a table created earlier at [base].

    @raise Invalid_argument if the header magic does not match. *)

val add : t -> func_id:int -> args:bytes -> int
(** [add t ~func_id ~args] persistently appends a task and returns its
    index.

    @raise Invalid_argument if the table is full or [args] exceed the
    table's argument capacity. *)

val count : t -> int

val func_id : t -> int -> int
val args : t -> int -> bytes

exception Torn_completion of int
(** The task's done status does not match its answer: a crash tore the
    completion. *)

val status : t -> int -> [ `Pending | `Done of int64 ]
(** @raise Torn_completion if the task is done but its status word fails
    its checksum (only when {!Nvram.Integrity.enabled}). *)

val mark_done : t -> int -> int64 -> unit
(** Idempotent: a recovery re-marking an already-done task rewrites the
    same answer. *)

val pending : t -> int list
(** Indices of tasks not yet marked done, in submission order. *)

val results : t -> (int * int64 option) list
(** For every task, its answer if completed. *)
