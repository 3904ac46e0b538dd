(** Crash-consistent persistent heap allocator, sharded into arenas.

    Section 4.2 of the paper stores big function results in the "NVRAM heap"
    and Section 4.3 initialises "the memory allocator" at system start;
    Appendix A allocates stack blocks from it.  This module is that
    substrate: a best-fit allocator whose only metadata in the persistent
    region is the tiling of checksummed block tags, which survives crashes.
    Which blocks are free is also kept in a volatile per-arena index, built
    from the tiling by {!format} and {!recover}, and for an
    {!open_existing} heap by its first allocation, as Makalu (ref. [11] of
    the paper) rebuilds allocator metadata offline.  (Best fit, because free blocks
    coalesce only offline at {!recover}: exact-size reuse keeps repetitive
    workloads at a fragmentation steady state.)

    {2 Arenas}

    The paper's runtime assumes one worker per core, so the heap is sharded
    to match: a superblock at [base] fans out to N independent {e arena}
    regions, each with its own free index and its own lock.  A handle bound
    with {!with_arena} allocates from its arena without ever crossing
    another worker's lock; an unbound handle routes by the calling domain.
    When the bound arena is exhausted, allocation steals round-robin from
    the other arenas and raises {!Out_of_heap_memory} only when every arena
    is full.  {!free} routes a payload back to its {e owning} arena by
    address range, whichever worker performs it, so cross-worker frees stay
    correct.  [arenas = 1] (the default) is a single unsharded heap.

    {2 Crash-consistency protocol}

    Every state change is committed by a single 8-byte flush (atomic in the
    device model):

    - {e formatting} writes every arena header first and commits with the
      superblock flush, so a crash mid-split leaves a region that fails the
      magic check rather than a half-formatted heap;
    - {e allocation without splitting} commits by setting the block's
      allocated bit (one tag write);
    - {e allocation with splitting} carves the new block from the {e tail}
      of a free block, so the only commit is shrinking the free block's size
      field;
    - {e free} commits by clearing the block's allocated bit.

    The volatile index follows the tiling, never leads it: an allocation
    takes its block out of the index before the commit write, and a free
    puts its block in after the commit flush.  An operation cut short by a
    crash or an individual kill therefore leaks at most one block until the
    next {!recover}, and never hands a block out twice.

    A crash between an allocation's commit and the moment the client
    persists the block offset can leak the block — the same window real
    persistent allocators close with logging (Makalu).  We close it
    offline: {!recover} walks each arena's block sequence in turn,
    coalesces adjacent free blocks and indexes every block not marked
    allocated; {!retain} then reclaims allocated blocks no root reaches.
    Every pass is idempotent, so repeated failures during recovery are
    harmless (Section 4.3).

    {2 Domain safety}

    Every mutating or scanning entry point serialises on the lock of the
    single arena it touches: the lock guards the arena's volatile index,
    which the device's striped lock does not cover, and makes a tiling
    walk, which spans many device lines, atomic.  Worker domains bound to
    distinct arenas proceed in parallel; aggregate scans
    ({!free_bytes}, {!check}, …) lock one arena at a time.

    {2 Media faults}

    All heap metadata is checksummed ({!Nvram.Integrity}): the superblock
    and each arena header carry an FNV-64 field, and every block size tag
    embeds a 15-bit code in its high bits.  Faults degrade instead of
    crashing: an arena header failing its checksum is rewritten from the
    superblock geometry at {!recover}, and an arena whose tiling fails a
    tag check — there is no second copy to rebuild it from — is
    {e quarantined}: allocation routes around it, frees into it are dropped
    (the block leaks, bounded by the arena size), and aggregate scans skip
    it.  Every detection, repair and quarantine ticks
    the [faults_*] counters in {!Obs.Counters}. *)

type t

exception Out_of_heap_memory of { requested : int; largest_free : int }

val format : ?arenas:int -> Nvram.Pmem.t -> base:Nvram.Offset.t -> len:int -> t
(** [format ?arenas pmem ~base ~len] initialises a fresh heap occupying
    [len] bytes of the device starting at [base], erasing whatever was
    there, split into [arenas] independent regions (default [1]).  [len]
    must fit the superblock plus one header and one minimal block per
    arena.  All headers and initial block tags are flushed before the
    function returns; the superblock flush is the commit. *)

val open_existing : Nvram.Pmem.t -> base:Nvram.Offset.t -> t
(** [open_existing pmem ~base] attaches to a heap previously created by
    {!format}, without modifying it and without walking the block tiling.
    The arena split is recomputed from the superblock, so no configuration
    needs to be remembered.  An arena's free index is built on its first
    allocation; a tiling that fails its checksums then quarantines the
    arena.

    @raise Invalid_argument if the superblock or an arena header does not
    match. *)

type repair =
  | Repaired_arena_header of { arena : int }
      (** the arena header failed its checksum and was rewritten from the
          superblock geometry (headers are pure functions of it) *)
  | Quarantined_arena of { arena : int; reason : string }
      (** the arena's block tiling is unwalkable; the arena is out of
          service until the next {!format} *)

val pp_repair : Format.formatter -> repair -> unit

val recover :
  ?report:(repair -> unit) -> Nvram.Pmem.t -> base:Nvram.Offset.t -> t
(** [recover pmem ~base] attaches to an existing heap and walks every
    arena's tiling in address order: adjacent free blocks are coalesced
    and every block not marked allocated is indexed as free (reclaiming
    blocks leaked by a crash inside an allocation).  The coalescing merges
    are its only device writes.  Safe to re-run after repeated failures.

    Media damage is handled per arena: a header failing its checksum is
    rewritten from the superblock geometry, and an arena whose tiling is
    unwalkable is quarantined; both are passed to [?report] (default:
    ignored, counters still tick).

    @raise Invalid_argument if the superblock itself fails its magic or
    checksum — the geometry is the one thing that cannot be rebuilt. *)

val alloc : t -> int -> Nvram.Offset.t
(** [alloc t n] allocates at least [n] bytes ([n >= 1]) and returns the
    offset of the payload.  The payload is {e not} zeroed.  Allocation is
    served from the handle's arena (see {!with_arena}); on exhaustion it
    steals from the other arenas round-robin.

    @raise Out_of_heap_memory if no free block in any arena fits. *)

val free : t -> Nvram.Offset.t -> unit
(** [free t payload] returns the block to its {e owning} arena, found by
    address range — correct from any worker, not just the allocating one.
    It reads and rewrites the block's tag (one flush), then indexes the
    block.  A tag failing its checksum quarantines the arena and drops the
    free.

    @raise Invalid_argument if [payload] is not the payload offset of a
    currently-allocated block (a double free included). *)

type reclaimed = { blocks : int; bytes : int }
(** What a {!retain} pass gave back: freed block count, and whole-block
    bytes (payload + header) returned to the heap. *)

val retain : t -> live:Nvram.Offset.t list -> reclaimed
(** [retain t ~live] frees every allocated block whose payload offset is not
    listed in [live] and reports what was reclaimed, arena by arena.  This
    is the root-based offline reclamation a system recovery runs after
    rebuilding its data structures: any block that a crash window left
    allocated but unreferenced (e.g. an abandoned stack block mid-resize)
    is returned to its arena.  Liveness membership is a hash
    set keyed on the payload offset, so the pass costs
    O(blocks + length live) rather than their product. *)

val payload_size : t -> Nvram.Offset.t -> int
(** [payload_size t payload] is the usable size of an allocated block, which
    may exceed the requested size due to rounding. *)

(** {1 Arena routing} *)

val arena_count : t -> int
(** Number of arenas the region was formatted with. *)

val with_arena : t -> int -> t
(** [with_arena t i] is a cheap view of the same heap whose allocations are
    served from arena [i mod arena_count t] first.  Views share the
    underlying arena locks and free indexes; any view can free or size any
    payload.  The runtime binds worker [i] to arena [i] so worker-local
    allocation never contends. *)

val arena_index : t -> Nvram.Offset.t -> int
(** [arena_index t payload] is the arena that owns [payload], as {!free}
    would route it.

    @raise Invalid_argument if [payload] lies outside the heap region. *)

val quarantined_arenas : t -> int list
(** Indices of arenas currently out of service, in order. *)

val quarantined_count : t -> int

val arena_base : t -> int -> Nvram.Offset.t
(** Device offset of arena [i]'s header — the fault-injecting fuzzer uses
    it to aim bitflips at checksummed metadata. *)

(** {1 Introspection} *)

val base : t -> Nvram.Offset.t
val length : t -> int

val free_bytes : t -> int
(** Total payload bytes available across all free blocks of all arenas. *)

val largest_free : t -> int
(** Largest single allocatable payload in any arena. *)

val block_count : t -> allocated:bool -> int
(** Number of blocks with the given allocation status, over all arenas. *)

val iter_blocks :
  t -> (off:Nvram.Offset.t -> size:int -> allocated:bool -> unit) -> unit
(** Iterates over all blocks in address order (arena order is address
    order).  [off] is the block header offset and [size] the whole block
    size including the header. *)

val check : t -> (unit, string) result
(** [check t] validates the heap invariants: the superblock and arena
    header checksums verify, the arenas tile the region exactly, each
    arena's blocks tile the arena exactly (every tag checksum included),
    and each arena's volatile free index names only blocks that the tiling
    holds free, each once and at its tiled size.  Quarantined
    arenas pass vacuously — out of service is a reported state, not an
    invariant violation (consult {!quarantined_count}).  Used by tests
    after simulated crashes and media faults. *)

val pp : Format.formatter -> t -> unit
(** One arena and one block per line, for debugging. *)

(** {1 Constants} *)

val superblock_size : int
(** Bytes reserved at [base] for the superblock. *)

val header_size : int
(** Bytes reserved at the start of each arena for its header. *)

val block_header_size : int
(** Bytes of overhead per block. *)
