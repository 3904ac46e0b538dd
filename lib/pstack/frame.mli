(** Persistent stack frames: in-memory representation and byte codec.

    Section 3.3 of the paper: each frame carries the unique identifier of
    the invoked function, the function's arguments serialized into a byte
    array, and a one-byte end marker — [0x0] ({e frame end}: more frames
    follow) or [0x1] ({e stack end}: this is the top frame; anything after
    this byte is invalid data).

    Appendix A.3 adds a one-byte preamble distinguishing {e ordinary}
    frames ([0xA]) from {e pointer} frames ([0xB]) that link blocks of the
    linked-list stack.  For a uniform codec we prefix every frame with the
    preamble in all three stack implementations.

    Section 4.2: small (up to 8 bytes) results are returned "on the
    persistent stack".  Each ordinary frame therefore contains an {e answer
    slot} (one code byte + 8-byte value).  A callee writes its result into
    the {e caller}'s slot — a slot in the callee's own frame would be
    discarded by the very pop that linearizes the return.  The slot write
    need not be atomic: it is only read after the callee's pop committed,
    and until then the callee's recover function re-runs and rewrites it.
    The code byte is [0] for "no answer" and otherwise must equal
    [Nvram.Integrity.code_of_int64 value] (never [0]), so a half-persisted
    slot — the flush can straddle two cache lines — reads as {e absent}
    and recovery re-runs the callee instead of trusting it.

    {2 Integrity}

    Media faults (torn lines, bit rot — see [Nvram.Pmem.arm_faults]) can
    corrupt any frame byte, so the immutable part of every frame is
    checksummed at encode time and verified on every {!read}: an FNV-64
    over preamble, function id, argument length and arguments for ordinary
    frames, a one-byte code of the next-offset for pointer frames.  The
    answer slot and the end marker are excluded — both are legitimately
    rewritten after the frame is in place and carry their own checks.
    {!read} returns [Error corruption] instead of raising, and the stack
    [attach] scans turn a corrupt {e top} frame into "unfinished push,
    discard" (the paper's own recovery semantics) rather than a panic.

    Ordinary frame layout (all integers little-endian):
    {v
    +0            preamble        0xA
    +1  .. +8     function id
    +9            answer code     0 = empty, else code_of_int64 value
    +10 .. +17    answer value
    +18 .. +25    argument length L
    +26 .. +33    frame checksum (FNV-64; see above)
    +34 .. +33+L  arguments
    +34+L         end marker      0x0 | 0x1
    v}

    Pointer frame layout:
    {v
    +0            preamble        0xB
    +1  .. +8     payload offset of the next block
    +9            pointer code    code_of_int64 offset
    +10           end marker
    v} *)

type t = { func_id : int; args : bytes }
(** Decoded ordinary frame: function identifier and serialized arguments. *)

(** {1 Constants} *)

val marker_frame_end : int
(** [0x0]: more frames follow. *)

val marker_stack_end : int
(** [0x1]: the containing frame is the top of the stack. *)

val ordinary_header_size : int
(** Encoded bytes before the arguments (34). *)

val ordinary_size : args_len:int -> int
(** Whole encoded size of an ordinary frame, marker included. *)

val pointer_size : int
(** Whole encoded size of a pointer frame, marker included (11). *)

val dummy_func_id : int
(** Function id of the dummy frame installed at stack initialisation
    (Section 3.4); never popped, never recovered. *)

(** {2 Field offsets} (relative to the frame start; used by byte-surgery
    corruption tests) *)

val func_id_rel : int
val args_len_rel : int
val crc_rel : int
val pointer_code_rel : int

(** {1 Encoding} *)

val encode_ordinary : t -> marker:int -> bytes
(** [encode_ordinary frame ~marker] is the full byte image of the frame,
    with an empty answer slot and a valid checksum. *)

val encode_pointer : next:Nvram.Offset.t -> marker:int -> bytes

(** {1 Decoding}

    One decoder reads the format, for recovery and for inspection alike:
    {!read} runs it over the device's tracked reads, {!peek} over untracked
    peeks of either view.  The validity rules — preamble, argument length
    bound, checksum, end marker, pointer code and pointer target — live
    only there, so a dump shows exactly what the recovery scan would
    accept. *)

type scanned =
  | Ordinary of { frame : t; size : int; last : bool }
      (** An ordinary frame of [size] encoded bytes; [last] iff its marker
          is the stack end. *)
  | Pointer of { next : Nvram.Offset.t; size : int; last : bool }
      (** A pointer frame linking to the block at payload offset [next]. *)

type corruption = {
  at : Nvram.Offset.t;  (** frame offset the decode started at *)
  reason : string;
  crc_mismatch : bool;
      (** [true] when the shape was plausible but the checksum disagreed
          — i.e. detection the integrity metadata paid for; [false] for
          structural damage (bad preamble/marker/length, a frame start or
          pointer target outside the device) that even the unchecksummed
          layout would have noticed *)
}

val read :
  Nvram.Pmem.t -> at:Nvram.Offset.t -> (scanned, corruption) result
(** [read pmem ~at] decodes the frame starting at [at] through the device's
    tracked reads (each one counted, and a crash point of an armed plan),
    verifying its checksum (unless [Nvram.Integrity.enabled] is off) before
    it reads the end marker.  Never raises on corrupt content: structural
    damage and checksum mismatches both come back as [Error].  This is the
    recovery scan's decoder. *)

val read_exn : Nvram.Pmem.t -> at:Nvram.Offset.t -> scanned
(** [read] for contexts that have already validated the image (tests,
    debug paths).

    @raise Invalid_argument on corrupt content. *)

type view =
  | Volatile  (** cache content included — the running system's view *)
  | Persistent  (** persisted bytes only — the post-crash view *)

type peeked = {
  scanned : scanned;
  crc_ok : bool;  (** whether the frame checksum or pointer code verifies *)
}

val peek :
  Nvram.Pmem.t -> view -> at:Nvram.Offset.t -> (peeked, corruption) result
(** [peek pmem view ~at] decodes like {!read}, but through untracked peeks
    of [view]: it counts nothing and does not perturb the crash schedule.
    A checksum mismatch does not stop it — the frame decodes as is with
    [crc_ok = false], so triage sees where an image is damaged; the
    checksum is checked whatever [Nvram.Integrity.enabled] says.
    Structural damage is an [Error], as for {!read}. *)

val pp_corruption : Format.formatter -> corruption -> unit

val marker_offset : at:Nvram.Offset.t -> size:int -> Nvram.Offset.t
(** Offset of the end-marker byte of a frame of [size] bytes at [at]. *)

(** {1 Answer slot} *)

val read_answer : Nvram.Pmem.t -> frame:Nvram.Offset.t -> int64 option
(** [read_answer pmem ~frame] is the answer stored in the slot of the
    ordinary frame at offset [frame], if its code byte is set {e and}
    matches the value — a half-persisted or rotted slot reads as [None]
    (and counts one detected fault when observability is on), so recovery
    re-runs the callee rather than resume from a corrupt result. *)

type slot =
  | Empty  (** code byte 0: no answer *)
  | Answer of int64  (** code byte matches the value *)
  | Torn  (** code byte set but disagrees with the value *)

val peek_answer : Nvram.Pmem.t -> view -> frame:Nvram.Offset.t -> slot
(** [peek_answer pmem view ~frame] reads the answer slot of the ordinary
    frame at [frame] by the same code rule as {!read_answer}, through
    untracked peeks of [view]; it counts nothing. *)

val write_answer : Nvram.Pmem.t -> frame:Nvram.Offset.t -> int64 -> unit
(** Writes the value, sets the code byte and flushes the slot. *)

val clear_answer : Nvram.Pmem.t -> frame:Nvram.Offset.t -> unit
(** Clears the code byte and flushes it. *)

val encode_ordinary_into :
  bytes -> func_id:int -> args:bytes -> marker:int -> unit
(** [encode_ordinary_into buf ~func_id ~args ~marker] encodes like
    {!encode_ordinary} into a caller-supplied buffer of exactly
    [ordinary_size] bytes, clearing the answer slot.  Takes the fields
    directly (no {!t} record) and lets hot paths reuse one staging buffer
    instead of allocating per push — per-operation allocations feed the
    minor GC, whose collections are stop-the-world across all domains.

    @raise Invalid_argument if [buf] has the wrong size. *)
