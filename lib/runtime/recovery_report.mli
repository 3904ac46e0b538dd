(** Structured account of what a recovery had to repair.

    Detect-and-degrade recovery ({!Pstack.Bounded.attach} truncating torn
    tails, {!Nvheap.Heap.recover} rewriting arena headers, the recovery
    sweep quarantining arenas) no longer raises on media damage — this
    report is where the damage surfaces instead, so callers (the driver,
    the fuzzer's oracle, [trace_dump]) can distinguish a clean recovery
    from a degraded one without parsing logs.  A damage class that
    {e cannot} be degraded around (corrupt dummy frame, rotten superblock)
    still raises ({!Pstack.Repair.Corrupt_stack}, [Invalid_argument]) and
    is the caller's fatal case. *)

type item =
  | Stack_repair of { worker : int; event : Pstack.Repair.event }
      (** a worker stack's corrupt tail was truncated on attach *)
  | Heap_repair of Nvheap.Heap.repair
      (** a heap arena's header was rewritten, or the arena quarantined *)

type t

val empty : t
val of_items : item list -> t

val items : t -> item list
(** Chronological: heap header repairs first (the heap attaches before
    the stacks), then stack repairs in worker order, then the arenas the
    sweep ending the recovery quarantined. *)

val is_clean : t -> bool

val repaired_count : t -> int
(** Items repaired in place (everything but quarantines). *)

val quarantined_count : t -> int

val quarantined_arenas : t -> int list
(** Indices of heap arenas this recovery took out of service. *)

val pp_item : Format.formatter -> item -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
