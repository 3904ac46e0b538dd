(** Persistent backing store of the simulated device.

    The backend holds the bytes that survive a crash.  Two backends are
    provided, sharing one storage type and one code path:

    - {e memory}: the persistent image is an anonymous Bigarray.  Fast;
      used by tests and benchmarks.  A simulated crash keeps the image and
      discards only the volatile cache above it (see {!Pmem}).
    - {e file}: the persistent image is a shared mapping of a real file, as
      in the paper's [mmap]-ed cheap-hardware mode.  A persist is a run of
      stores into the mapping — no system call — and the page cache
      outlives the process, so the image survives a real [kill -9]
      ([bin/nvram_runner] exercises this) while the simulated volatile
      cache dies with it.

    {b Atomicity.}  A persist copies its bytes in ascending order as aligned
    8-byte stores, with single-byte stores for an unaligned head or tail.
    Only those stores are atomic: a [SIGKILL] that lands in the middle of
    a persist leaves a word prefix of the line in the image, the rest
    keeping its old bytes — at most one such line per worker domain.  That
    is the no-garbage case of the torn-write model of DESIGN.md §12, which
    the protocols already tolerate: checksummed frames, dedup records and
    heap headers detect a torn line, chain nodes stay unreachable until the
    CAS that follows their flush, and 1-byte markers and single words
    cannot tear.

    All operations address the {e persistent} image directly; the volatile
    cache is layered on top by {!Pmem} and is invisible here. *)

type t

val memory : size:int -> t
(** [memory ~size] is a fresh all-zero in-memory persistent image. *)

val file : ?persist_delay:float -> path:string -> size:int -> unit -> t
(** [file ~path ~size ()] maps (creating it zero-filled if needed) the
    persistent image stored in [path].  The mapping is shared, so a
    restarted process — or a second backend opened on the same path —
    observes every byte persisted before.  [persist_delay] (seconds,
    default 0) sleeps on every persist, modelling the latency of slow
    persistent media (the paper's HDD-backed emulation) — it also gives
    the kill-based crash emulation of [bin/nvram_runner] realistic windows
    to interrupt.

    @raise Invalid_argument if an existing file's size differs from [size]. *)

val size : t -> int

val read : t -> off:int -> len:int -> bytes
(** [read t ~off ~len] reads [len] bytes of the persistent image. *)

val blit_to : t -> off:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** [blit_to t ~off ~dst ~dst_off ~len] copies persistent bytes into [dst]. *)

val persist : t -> off:int -> src:bytes -> src_off:int -> len:int -> unit
(** [persist t ~off ~src ~src_off ~len] makes the given bytes durable at
    offset [off] of the image (a store into the shared mapping for file
    backends; see the atomicity note above). *)

val flip_bit : t -> off:int -> bit:int -> unit
(** [flip_bit t ~off ~bit] inverts one bit of the persistent image —
    simulated bit rot.  The flip goes straight to the durable bytes
    (the file's mapping on file backends), bypassing the volatile cache:
    rot happens at rest, not in flight.

    @raise Invalid_argument if [off] is outside the image or [bit] is not
    in [0..7]. *)

val close : t -> unit
(** [close t] releases the file descriptor of a file backend (no-op for
    memory backends).  The mapping itself is released when [t] is
    collected. *)
