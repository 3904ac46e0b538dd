(** Textual rendering of the on-device stack layout.

    This is the executable counterpart of the paper's Figures 2–5 and 8:
    it walks the frames of a stack region, one line per frame, and reports
    where the valid stack ends.  Every frame is decoded by {!Frame.peek},
    the recovery decoder run over untracked peeks, so a line shows exactly
    what the recovery scan would accept, and a dump neither counts device
    reads nor perturbs the crash schedule.  Two views are available: what
    the processor currently sees (volatile cache included) and what would
    survive a crash losing every unflushed line. *)

type view = Frame.view =
  | Volatile  (** cache content included — the running system's view *)
  | Persistent  (** persisted bytes only — the post-crash view *)

type line =
  | Frame of {
      off : Nvram.Offset.t;
      func_id : int;
      args_len : int;
      answer : int64 option;
          (** [None] also when the answer code byte disagrees with the
              value — a half-persisted or rotted slot *)
      last : bool;
      crc_ok : bool;
          (** whether the frame checksum (and the answer code, if set)
              verifies — unlike the recovery scan, a dump decodes and
              shows a checksum-corrupt frame instead of stopping, so
              triage sees {e where} an image is damaged ({!Frame.peek}) *)
    }
  | Pointer_frame of {
      off : Nvram.Offset.t;
      next : Nvram.Offset.t;
      crc_ok : bool;  (** whether the pointer code byte verifies *)
    }
  | Invalid_tail of { off : Nvram.Offset.t; note : string }
      (** Data after the stack end marker: never interpreted (Fig. 2). *)

val scan_region :
  Nvram.Pmem.t -> view:view -> base:Nvram.Offset.t -> line list
(** [scan_region pmem ~view ~base] decodes frames from [base] until the
    stack end marker, following no pointers (bounded and resizable
    layouts).  Decoding stops with an [Invalid_tail] describing what
    follows the top frame; a structurally corrupt frame also yields an
    [Invalid_tail], whose note is the decoder's reason. *)

val scan_linked :
  Nvram.Pmem.t -> view:view -> anchor:Nvram.Offset.t -> line list
(** [scan_linked pmem ~view ~anchor] decodes a linked-list stack, following
    pointer frames across blocks. *)

val render : line list -> string
(** One line of text per {!line}, in scan order. *)

val pp_line : Format.formatter -> line -> unit
