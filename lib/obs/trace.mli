(** Bounded in-memory event trace.

    A fixed-capacity ring of timestamped events written lock-free from any
    domain (one [fetch_and_add] per event); when the ring wraps, the oldest
    events are overwritten, so the cost of tracing is constant and the tail
    always holds the moments leading up to whatever went wrong — exactly
    what a crash reproducer wants attached.

    Events cover the runtime's life cycle: function invocations beginning
    and ending, crash eras being armed, crashes firing, recovery passes,
    and heap allocation traffic.

    {!chrome_json_of_events} renders events in the Chrome
    [trace_event] JSON array format, loadable in [chrome://tracing] or
    Perfetto: begin/end pairs become duration slices per domain, everything
    else instant events. *)

type kind =
  | Op_begin of { func_id : int }  (** [Exec.call] pushed the frame *)
  | Op_end of { func_id : int }  (** [Exec.call] returned *)
  | Era_armed of { era : int }
  | Crash_fired of { era : int; at_op : int }
  | Recovery_begin of { worker : int }
  | Recovery_end of { worker : int }
  | Heap_alloc of { payload : int; size : int }
  | Heap_free of { payload : int }
  | Fault_note of { what : string }
      (** a media-fault detection, repair or quarantine, free-form *)

type event = { ts_ns : int; domain : int; kind : kind }

val capacity : int
(** Ring capacity in events (8192). *)

val record : kind -> unit
(** Append one event (no-op when {!Config.enabled} is false). *)

val clear : unit -> unit
(** Drop every buffered event. *)

val events : unit -> event list
(** Buffered events, oldest first (at most {!capacity}). *)

val tail : int -> event list
(** [tail n] is the most recent [n] buffered events, oldest first. *)

val pp_event : Format.formatter -> event -> unit
(** One human-readable line: timestamp, domain, event. *)

val chrome_json_of_events : event list -> string
(** Chrome [trace_event] JSON array for the given events. *)
