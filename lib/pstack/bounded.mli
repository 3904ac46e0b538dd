(** Fixed-capacity persistent stack (Section 3.3 of the paper).

    The stack occupies a contiguous region of the device.  A dummy frame is
    installed at initialisation and never removed, so the add/remove
    protocols always find a preceding frame whose marker they can move
    (Section 3.4, "Dummy frame").

    The stack is one {!Run} confined to [\[base, base+capacity)]: the core
    does the frame protocol, the attach scan and the index; this module
    only fixes the region. *)

type t

include Stack_intf.S with type t := t

val create : Nvram.Pmem.t -> base:Nvram.Offset.t -> capacity:int -> t
(** [create pmem ~base ~capacity] initialises an empty stack in
    [\[base, base+capacity)]: writes and flushes the dummy frame.

    @raise Invalid_argument if [capacity] cannot hold the dummy frame. *)

val attach :
  ?report:(Repair.event -> unit) ->
  Nvram.Pmem.t ->
  base:Nvram.Offset.t ->
  capacity:int ->
  t
(** [attach pmem ~base ~capacity] reconstructs the in-memory index of a
    stack previously created at [base] by scanning frames up to the stack
    end marker — the first step of recovery after a restart.

    A corrupt tail (torn frame, checksum mismatch, structural damage after
    at least one good frame) is discarded as an unfinished push: the stack
    end is re-asserted on the last good frame and a
    [Repair.Truncated_tail] event is passed to [?report] (default:
    silently ignored, counters still tick — see {!Repair}).

    @raise Repair.Corrupt_stack if the dummy frame itself is corrupt: no
    good prefix exists, the stack is unrecoverable. *)

val base : t -> Nvram.Offset.t
val capacity : t -> int

val used_bytes : t -> int
(** Bytes occupied by frames, dummy frame and markers included. *)

(** {1 Fault-injection hooks (tests only)}

    These deliberately violate the two flushing invariants of Section 3.4
    to reproduce Figure 6.  Production code must use {!push}. *)

val unsafe_push :
  ?flush_frame:bool ->
  ?flush_marker:bool ->
  t ->
  func_id:int ->
  args:bytes ->
  unit
(** Like {!push} but optionally skipping the flush of the new frame
    (invariant 1, Fig. 6a) and/or the flush of the moved stack-end marker
    (invariant 2, Fig. 6b).  Defaults perform both flushes. *)
