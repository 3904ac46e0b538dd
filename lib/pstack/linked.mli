(** Unbounded persistent stack backed by a linked list of blocks
    (Appendix A.3 of the paper).

    Frames occupy heap blocks chained by {e pointer frames} (preamble
    [0xB]): a pointer frame at the end of a block holds the payload offset
    of the next block, and all data after a pointer frame within its block
    is invalid.  The anchor cell holds the payload offset of the first
    block.

    Pushing a frame that does not fit in the current block allocates a new
    block, writes the frame there (flushed, still invisible), writes a
    pointer frame after the current top (flushed, still invisible), and
    finally moves the stack end forward on the current top — one atomic
    byte flush that makes both frames part of the stack.

    Popping the only frame of a block moves the stack end backward onto the
    ordinary frame {e preceding} the pointer frame in the previous block —
    again one atomic byte flush, after which the emptied block is freed
    (Fig. 8).

    Invariants: a block's first frame is always ordinary; a pointer frame is
    always the last valid frame of its block and never the stack top.

    The frames form one {!Run} that continues across blocks: the core does
    the in-block push, the pop's marker flip, the attach scan (following
    pointer frames through a callback) and the index; this module keeps
    the cross-block push and the freeing of an emptied block. *)

type t

include Stack_intf.S with type t := t

val create :
  Nvram.Pmem.t ->
  heap:Nvheap.Heap.t ->
  anchor:Nvram.Offset.t ->
  ?block_size:int ->
  unit ->
  t
(** [create pmem ~heap ~anchor ()] allocates the first block (default
    [block_size] 256 bytes), installs the dummy frame and publishes the
    block in the anchor cell. *)

val attach :
  ?report:(Repair.event -> unit) ->
  Nvram.Pmem.t ->
  heap:Nvheap.Heap.t ->
  ?block_size:int ->
  anchor:Nvram.Offset.t ->
  unit ->
  t
(** Rebuilds the index by following the anchor and the pointer frames.
    [block_size] is the allocation granularity for blocks chained {e after}
    the attach; pass the size the stack was created with (the runtime
    records it in the system superblock), otherwise new blocks fall back to
    the 256-byte default — the stack stays correct but its allocation
    pattern silently changes across a crash.

    A corrupt tail truncates to the last good {e ordinary} frame (any
    pointer frame above it belongs to the discarded unfinished cross-block
    push) and reports via [?report]; the orphaned block leaks until
    root-based heap reclamation collects it.  A pointer frame that opens a
    block breaks the invariants above and is truncated as damage.

    @raise Repair.Corrupt_stack if the anchor or the first block's dummy
    frame is corrupt. *)

val block_size : t -> int
(** The block allocation granularity this handle uses for new blocks. *)

val block_count : t -> int
(** Number of blocks currently chained. *)

val used_bytes : t -> int
(** Total bytes of valid frames (ordinary and pointer), across blocks. *)
