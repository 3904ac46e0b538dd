(** A recoverable hash map — the kind of byte-addressable persistent data
    structure the paper's introduction motivates ("binary search trees,
    linked lists, ...") built with this repository's evidence patterns.

    Layout: a fixed array of bucket head pointers; each bucket is a chain
    of immutable version nodes.  Every mutation creates evidence that its
    recovery can find:

    - {b put} allocates and persists a node [(key, value)] {e before} the
      linking attempt (the node offset travels in the attempt's frame
      arguments); the attempt CASes the node onto its bucket's head.
      Evidence: the node is reachable in the bucket chain.  Newer versions
      sit closer to the head, so lookups see the latest put.
    - {b remove} claims the newest live node of the key with a per-process
      (pid, sequence) token — the same device as the queue's dequeue.
      Evidence: a node carrying the token.  A key is live iff its newest
      version node is unclaimed.

    Lookups are read-only and need no recovery.  Superseded and removed
    versions stay in the chains (reclamation is left to an external sweep,
    as in the published persistent structures); {!live_nodes} reports the
    chains as GC roots.

    Keys and values are OCaml [int]s. *)

type t

val region_size : buckets:int -> nprocs:int -> int

val buckets_for_device : int -> int
(** [buckets_for_device size] is the bucket count a map formatted on a
    device of [size] bytes gets: one bucket per 64 KiB, rounded down to a
    power of two, and never fewer than 64.  So a 2 MiB device gets 64 and
    a 64 MiB device 1024, which keeps a map of one key per 4 KiB of device
    at 16 keys per chain.  The count is chosen at {!create} only: an
    {!attach} must pass the count the map was created with. *)

val create :
  Nvram.Pmem.t ->
  heap:Nvheap.Heap.t ->
  base:Nvram.Offset.t ->
  buckets:int ->
  nprocs:int ->
  t
(** [buckets] must be a power of two. *)

val attach :
  Nvram.Pmem.t ->
  heap:Nvheap.Heap.t ->
  base:Nvram.Offset.t ->
  buckets:int ->
  nprocs:int ->
  t

(** {1 Whole operations (crash-free contexts)} *)

val put : t -> key:int -> value:int -> unit
val remove : t -> pid:int -> key:int -> bool
(** [true] iff the key was present (this call removed it). *)

val find : t -> key:int -> int option

(** {1 Recoverable protocol pieces}

    Nodes are allocated with [Chain.alloc_node (chain t) ~heap [ key; value ]]
    and remove attempts are numbered with [Chain.bump (chain t)]. *)

val chain : t -> Chain.t
val link : t -> node:Nvram.Offset.t -> unit
val is_linked : t -> node:Nvram.Offset.t -> bool
val link_recover : t -> node:Nvram.Offset.t -> unit

val claim_newest : t -> pid:int -> seq:int -> key:int -> bool
(** The remove attempt tagged [seq]. *)

val claim_recover : t -> pid:int -> seq:int -> key:int -> bool

(** {1 Introspection} *)

val bindings : t -> (int * int) list
(** Live key/value pairs, unordered. *)

val cardinal : t -> int
val live_nodes : t -> Nvram.Offset.t list
