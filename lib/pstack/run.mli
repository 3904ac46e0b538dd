(** The frame-run core shared by the three persistent stacks (Section 3.4;
    Appendices A.2 and A.3).

    A {e run} is the paper's stack protocol on the device: frames sit back
    to back and the run ends at the frame whose marker is the stack end.
    A push writes the new frame past the end and flushes it, then flips
    the previous top's marker — the single-byte flush that linearizes the
    invocation.  A pop flips the marker of the frame below the top.
    Attach scans the frames up to the stack end and cuts off a corrupt
    tail.  The bounded stack is one run in a fixed region, the resizable
    stack one run in a heap block it moves, the linked stack a run that
    continues across heap blocks through pointer frames.

    The core also owns the in-memory index: a growable array of mutable
    slots, one per frame, reused across push/pop, and one reused staging
    buffer for frame images, so a steady push/pop allocates nothing.  Each
    slot records the heap block (or fixed region) its frame lives in and
    that block's end.  A slot whose block differs from the slot below it
    implies a pointer frame right after the slot below. *)

exception Overflow
(** The frame does not fit: the region is full, or the heap is out of
    memory.  Every stack re-exports this one exception as its own
    [Overflow]. *)

type slot = {
  mutable off : Nvram.Offset.t;  (** where the frame starts *)
  mutable size : int;  (** encoded size, marker included *)
  mutable func_id : int;
  mutable args : bytes;
  mutable block : Nvram.Offset.t;  (** start of the block holding it *)
  mutable limit : Nvram.Offset.t;  (** end of that block *)
}

type t

val create :
  Nvram.Pmem.t ->
  name:string ->
  block:Nvram.Offset.t ->
  limit:Nvram.Offset.t ->
  t
(** [create pmem ~name ~block ~limit] writes and flushes the dummy frame at
    [block] and returns its one-slot index.  [name] ("bounded", …) names
    the stack in errors and repair reports.

    @raise Invalid_argument if [\[block, limit)] cannot hold the dummy. *)

val attach :
  ?report:(Repair.event -> unit) ->
  ?follow:(Nvram.Offset.t -> (Nvram.Offset.t, string) result) ->
  Nvram.Pmem.t ->
  name:string ->
  block:Nvram.Offset.t ->
  limit:Nvram.Offset.t ->
  t
(** [attach pmem ~name ~block ~limit] rebuilds the index by scanning from
    [block] to the stack end.  A pointer frame is refused unless [follow]
    is given: [follow next] is the end of the heap block at [next], where
    the scan continues (or [Error reason]).  A corrupt tail after at least
    one good frame — a torn or rotted frame, a frame past its block's end,
    a refused pointer frame — is an unfinished push: the stack end is
    re-asserted on the last good ordinary frame, {!Repair.note_truncation}
    counts it and [report] receives a {!Repair.Truncated_tail}.

    @raise Repair.Corrupt_stack if the dummy frame itself is bad. *)

val pmem : t -> Nvram.Pmem.t

(** {1 Push and pop} *)

val push :
  ?flush_frame:bool ->
  ?flush_marker:bool ->
  t ->
  func_id:int ->
  args:bytes ->
  unit
(** [push t ~func_id ~args] appends a frame after the top, in the top's
    block.  The flags skip the frame flush (Fig. 6a) or the marker flush
    (Fig. 6b); both default to [true].

    @raise Overflow if the frame does not fit before the block's end. *)

val write_frame :
  t -> flush:bool -> off:Nvram.Offset.t -> func_id:int -> args:bytes -> unit
(** [write_frame t ~flush ~off ~func_id ~args] writes a stack-end frame
    image at [off] beyond the stack end (still invisible) and flushes it
    if [flush]. *)

val commit :
  ?flush_marker:bool ->
  t ->
  off:Nvram.Offset.t ->
  size:int ->
  func_id:int ->
  args:bytes ->
  block:Nvram.Offset.t ->
  limit:Nvram.Offset.t ->
  unit
(** [commit t ~off ~size ...] makes the frame {!write_frame} put at [off]
    the new top: flips the current top's marker to frame end and indexes
    the frame. *)

val pop : t -> unit
(** Flips the marker of the frame below the top to stack end.

    @raise Invalid_argument if only the dummy frame remains. *)

(** {1 Queries} *)

val depth : t -> int
val top_slot : t -> slot
(** The top frame's slot — the dummy's when the stack is empty.  Valid
    until the next push or pop. *)

val iter : (slot -> unit) -> t -> unit
(** Every slot, dummy first. *)

val top : t -> (Nvram.Offset.t * Frame.t) option
val top_offset : t -> Nvram.Offset.t
val under_top_offset : t -> Nvram.Offset.t
val frames : t -> (Nvram.Offset.t * Frame.t) list

(** {1 Heap-backed runs} *)

val alloc_block : Nvheap.Heap.t -> int -> Nvram.Offset.t
(** [Heap.alloc], with an exhausted heap reported as {!Overflow}. *)

val limit_of : Nvheap.Heap.t -> Nvram.Offset.t -> Nvram.Offset.t
(** End of the allocated heap block at a payload offset. *)

val publish : Nvram.Pmem.t -> anchor:Nvram.Offset.t -> Nvram.Offset.t -> unit
(** Writes a block's payload offset into the 8-byte anchor cell and
    flushes it — one atomic commit. *)

val anchored :
  Nvram.Pmem.t ->
  Nvheap.Heap.t ->
  name:string ->
  anchor:Nvram.Offset.t ->
  Nvram.Offset.t * Nvram.Offset.t
(** The block the anchor cell references and its end.

    @raise Repair.Corrupt_stack if the anchor does not reference an
    allocated heap block. *)
