(** Detect-and-degrade outcomes of a stack [attach] scan.

    Media faults (see [Nvram.Pmem.arm_faults]) can leave a persistent
    stack image with a corrupt {e tail}: a torn top frame, a shredded
    marker, a rotted checksum.  The paper's own recovery semantics already
    discard an unfinished push — the frame bytes beyond the last committed
    stack end are invalid data — so the repair for every corrupt tail is
    the same move: re-assert the stack-end marker on the last good frame
    and drop the rest.  That repair is reported as a {!Truncated_tail}
    event through the [?report] callback each stack's [attach] accepts.

    Corruption that reaches the {e base} of the stack (the dummy frame, or
    the first block) leaves nothing to truncate to: the stack is
    unrecoverable and [attach] raises {!Corrupt_stack}, which the runtime
    turns into a structured fatal entry of its recovery report rather
    than a panic. *)

type event =
  | Truncated_tail of {
      stack : string;  (** implementation name: "bounded", … *)
      at : Nvram.Offset.t;  (** where the bad frame starts *)
      frames_kept : int;  (** surviving frames, dummy included *)
      corruption : Frame.corruption;
    }

exception
  Corrupt_stack of {
    stack : string;
    at : Nvram.Offset.t;
    reason : string;
  }
(** The stack base itself is corrupt: no prefix of good frames exists to
    truncate to, so the stack cannot be re-attached.  Deliberately {e not}
    repaired by re-formatting: rebuilding a lost stack would re-run the
    bodies of possibly-completed operations. *)

val pp_event : Format.formatter -> event -> unit
val event_to_string : event -> string

val note_truncation : unit -> unit
(** Count one detected + one repaired fault in [Obs.Counters].  Called by
    the stack [attach] scans. *)

val corrupt_stack : stack:string -> at:Nvram.Offset.t -> string -> 'a
(** Raise {!Corrupt_stack}. *)
