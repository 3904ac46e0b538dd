(** Common interface of the three persistent-stack implementations
    (Section 3: bounded; Appendix A.2: resizable array; Appendix A.3:
    linked list of blocks).

    The runtime is parametric in this interface, so any implementation can
    back the call protocol and the recovery traversal.  All three are
    built on one frame-run core, {!Run}, and share its [Overflow]. *)

module type S = sig
  type t

  exception Overflow
  (** Raised by {!push} when the frame cannot be accommodated (fixed
      capacity exhausted, or the heap backing an unbounded stack is out of
      memory). *)

  val push : t -> func_id:int -> args:bytes -> unit
  (** [push t ~func_id ~args] adds a frame for the invoked function on top
      of the stack: the frame is written after the current stack end marker
      and flushed, then the previous top's marker is flipped ({e moving the
      stack end forward}) — the single-byte flush that linearizes the
      invocation. *)

  val pop : t -> unit
  (** [pop t] removes the top frame by flipping the penultimate frame's
      marker to stack-end ({e moving the stack end backward}).

      @raise Invalid_argument if only the dummy frame remains. *)

  val depth : t -> int
  (** Number of frames, excluding the dummy frame. *)

  val top : t -> (Nvram.Offset.t * Frame.t) option
  (** Offset and contents of the top frame, or [None] if only the dummy
      frame remains.  Offsets are invalidated by any subsequent [push] or
      [pop] (unbounded stacks may relocate their storage). *)

  val top_offset : t -> Nvram.Offset.t
  (** Offset of the top frame — the dummy frame when the stack is empty.
      This frame's answer slot is where a function invoked {e now} must
      deposit its result. *)

  val under_top_offset : t -> Nvram.Offset.t
  (** Offset of the frame directly below the top — the caller's frame
      during the execution of the top function.

      @raise Invalid_argument if only the dummy frame remains. *)

  val frames : t -> (Nvram.Offset.t * Frame.t) list
  (** All frames, bottom to top, excluding the dummy frame. *)

  val live_blocks : t -> Nvram.Offset.t list
  (** Payload offsets of the heap blocks this stack currently references —
      the GC roots a system recovery passes to [Nvheap.Heap.retain] to
      reclaim blocks leaked by a crash mid-resize.  Empty for stacks that
      do not allocate from a heap. *)

  val pmem : t -> Nvram.Pmem.t
end
