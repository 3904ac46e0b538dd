(** A recoverable LIFO stack {e object} (a Treiber stack in persistent
    memory) — not to be confused with the persistent {e call} stack of
    [lib/pstack], which stores frames; this stores application values, and
    completes the recoverable-structure family (queue = FIFO, map = keyed,
    stack = LIFO) of future-work direction 1.

    Same evidence devices as {!Rqueue} and {!Rmap}:

    - push allocates and persists its node before the attempt; the attempt
      CASes the node onto the top pointer; evidence = node reachable in the
      chain;
    - pop claims the top-most unconsumed node with a flushed
      (pid, sequence) token; evidence = the token in the chain.

    Consumed nodes stay chained (reported as {!live_nodes} roots). *)

type t

val region_size : nprocs:int -> int

val create :
  Nvram.Pmem.t -> heap:Nvheap.Heap.t -> base:Nvram.Offset.t -> nprocs:int -> t

val attach :
  Nvram.Pmem.t -> heap:Nvheap.Heap.t -> base:Nvram.Offset.t -> nprocs:int -> t

(** {1 Whole operations (crash-free contexts)} *)

val push : t -> int -> unit
val pop : t -> pid:int -> int option

(** {1 Recoverable protocol pieces}

    Nodes are allocated with [Chain.alloc_node (chain t) ~heap [ value ]]
    and attempts are numbered with [Chain.bump (chain t)]. *)

val chain : t -> Chain.t
val link : t -> node:Nvram.Offset.t -> unit
val is_linked : t -> node:Nvram.Offset.t -> bool
val link_recover : t -> node:Nvram.Offset.t -> unit
val take : t -> pid:int -> seq:int -> int option
val take_recover : t -> pid:int -> seq:int -> int option

(** {1 Introspection} *)

val to_list : t -> int list
(** Live content, top first. *)

val length : t -> int
val live_nodes : t -> Nvram.Offset.t list
