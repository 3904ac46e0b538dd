(** A recoverable multi-producer/multi-consumer FIFO queue — "implement and
    test other NVRAM algorithms", future-work direction 1 of the paper.

    The structure is a Michael–Scott queue laid out in persistent memory
    (offsets only), with two recoverability devices in the style of the
    recoverable CAS:

    - {e enqueue evidence}: a node is allocated and initialised {e before}
      the linking attempt, and its offset travels in the attempt's frame
      arguments; the attempt linearizes on the CAS that links the node, so
      recovery decides "did my enqueue happen?" by checking whether the
      node is reachable in the linked chain;
    - {e dequeue evidence}: consumers do not race on the head pointer;
      they race on a per-node {e claimer} word, CASed from 0 to a
      (pid, sequence) token that is flushed before the operation returns.
      Recovery looks the token up in the chain: found — the dequeue
      linearized and its value is recovered; not found — it never took
      effect and is re-executed.

    The head and tail pointers are performance hints in the usual
    Michael–Scott sense (lagging values are helped forward); correctness
    after a crash rests only on the chain and the claimer tokens.

    Dequeued nodes stay in the chain (their claimer marks them consumed):
    like the published persistent queues, this reference implementation
    leaves memory reclamation to an external mechanism — the chain is
    reported via {!live_nodes} so a system recovery's root-based sweep
    keeps it alive.  Chain walks during recovery are O(total operations). *)

type t

val region_size : nprocs:int -> int

val create :
  Nvram.Pmem.t -> heap:Nvheap.Heap.t -> base:Nvram.Offset.t -> nprocs:int -> t

val attach :
  Nvram.Pmem.t -> heap:Nvheap.Heap.t -> base:Nvram.Offset.t -> nprocs:int -> t

(** {1 Whole operations (crash-free contexts: tests, benchmarks)} *)

val enqueue : t -> int -> unit
val dequeue : t -> pid:int -> int option

(** {1 Recoverable protocol pieces}

    Used by {!Queue_op} to bind the queue to the persistent-stack runtime;
    exposed for building custom bindings.  Nodes are allocated with
    [Chain.alloc_node (chain t) ~heap [ value ]] and dequeue attempts are
    numbered with [Chain.bump (chain t)]. *)

val chain : t -> Chain.t

val link : t -> node:Nvram.Offset.t -> unit
(** The enqueue attempt: link the node at the tail (lock-free loop). *)

val is_linked : t -> node:Nvram.Offset.t -> bool
(** Enqueue evidence: is the node in the chain? *)

val link_recover : t -> node:Nvram.Offset.t -> unit
(** Complete an interrupted {!link}: no-op if the node is already linked. *)

val take : t -> pid:int -> seq:int -> int option
(** The dequeue attempt tagged [seq]: claim the first unconsumed node, or
    [None] when the queue is empty. *)

val take_recover : t -> pid:int -> seq:int -> int option
(** Complete an interrupted {!take}: if the token [(pid, seq)] claimed a
    node, return its value; otherwise re-execute. *)

(** {1 Introspection} *)

val to_list : t -> int list
(** Current logical content, front first. *)

val length : t -> int

val live_nodes : t -> Nvram.Offset.t list
(** Payload offsets of every chain node (GC roots for [Heap.retain]). *)
