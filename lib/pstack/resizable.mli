(** Unbounded persistent stack backed by a dynamically resizable array
    (Appendix A.2 of the paper).

    The frames live in a single heap block; a persistent {e anchor} cell
    holds the payload offset of the current block.  When a frame does not
    fit, a larger block is allocated, the stack bytes are copied and
    flushed, and the anchor is flipped with one atomic 8-byte flush — the
    commit point of the resize.  When capacity exceeds four times the used
    size, the stack shrinks by the same procedure.

    A crash on either side of the anchor flip leaves exactly one of the two
    blocks referenced; the other is reclaimed by the root-based heap
    reclamation ([Nvheap.Heap.retain]) during system recovery.

    The frames form one {!Run} in the current block; this module keeps the
    anchor word, the copy-and-flip resize and the shift of the index onto
    the new block. *)

type t

include Stack_intf.S with type t := t

val create :
  Nvram.Pmem.t ->
  heap:Nvheap.Heap.t ->
  anchor:Nvram.Offset.t ->
  ?initial_capacity:int ->
  unit ->
  t
(** [create pmem ~heap ~anchor ()] allocates the initial block, installs the
    dummy frame and publishes the block in the 8-byte anchor cell at
    [anchor] (a device location owned by the caller). *)

val attach :
  ?report:(Repair.event -> unit) ->
  Nvram.Pmem.t ->
  heap:Nvheap.Heap.t ->
  anchor:Nvram.Offset.t ->
  t
(** [attach pmem ~heap ~anchor] follows the anchor and rebuilds the frame
    index by scanning — the recovery entry point.  Unlike {!Linked.attach},
    no sizing parameter needs threading through recovery: the capacity is
    re-derived from the live block itself ([Heap.payload_size]), so the
    configured initial capacity cannot drift across a crash.

    Corrupt tails are truncated to the last good frame and reported via
    [?report], like {!Bounded.attach}.

    @raise Repair.Corrupt_stack if the anchor does not reference a heap
    block or the dummy frame is corrupt. *)

val capacity : t -> int
(** Current block capacity in bytes. *)

val used_bytes : t -> int

val block : t -> Nvram.Offset.t
(** Payload offset of the current block (changes across resizes). *)

val resize_count : t -> int
(** Number of grow/shrink copies performed by this handle (volatile;
    benchmarking aid for the O(size) copy cost App. A.2 discusses). *)
