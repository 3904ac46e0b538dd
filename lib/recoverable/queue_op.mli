(** Runtime bindings for the recoverable queue: enqueue and dequeue as
    nesting-safe recoverable functions registered through {!Nested} — the
    outer function persists the recovery scope (the node offset for
    enqueue, the sequence number for dequeue) into the nested attempt's
    frame arguments before the attempt can take effect. *)

type handle = unit -> Rqueue.t

val register_enqueue :
  Runtime.Exec.t Runtime.Registry.t ->
  id:int ->
  attempt_id:int ->
  handle ->
  unit
(** Argument: the value to enqueue; answer [0].  The node is allocated
    from the calling worker's heap arena.  A crash between the node
    allocation and the attempt leaks the node (reclaimed by the heap's
    root-based sweep); a crash inside the attempt is resolved by the
    is-linked evidence. *)

val register_dequeue :
  Runtime.Exec.t Runtime.Registry.t ->
  id:int ->
  attempt_id:int ->
  handle ->
  unit
(** No arguments; the answer encodes [Some value] / [None (empty)] with
    [Value.answer_of_int_option].  Decode with {!dequeue_answer}. *)

val dequeue_answer : int64 -> int option
