(** The claim-token chain shared by {!Rstack}, {!Rqueue} and {!Rmap}.

    A chain is a singly linked list of 32-byte heap nodes reached from a
    persistent {e entry} cell (0 = empty).  A node holds [payload] words
    (the value; or the key and the value), then [next] (0 = end), then a
    [claimer] word: 0 while the node is live, else the (pid, sequence)
    token of the attempt that consumed it.  Nodes are never unlinked, so a
    node reachable once stays reachable — the evidence both recover duals
    rest on:

    - an insert attempt allocates and persists its node {e before} it runs
      (the node offset travels in the attempt's frame); it took effect iff
      the node is reachable ({!is_linked});
    - a consuming attempt draws a fresh persistent sequence number
      ({!bump}) before it runs; it took effect iff some node carries its
      token ({!find_claim}).

    The structure owns its entry cells and its own algorithm (which node
    to link after, which node to claim); this module owns the node layout,
    the sequence area and the walks. *)

type t

val make :
  name:string ->
  Nvram.Pmem.t ->
  seq_base:Nvram.Offset.t ->
  nprocs:int ->
  payload:int ->
  t
(** A view of a chain whose nodes carry [payload] words and whose
    per-process sequence counters sit one per 64-byte line from
    [seq_base].  [name] prefixes the errors.  Touches no memory. *)

val init_seqs : t -> unit
(** Zero and persist every sequence counter (structure creation). *)

(** {1 Sequence numbers} *)

val check_pid : t -> int -> unit
(** @raise Invalid_argument unless [0 <= pid < nprocs]. *)

val bump : t -> pid:int -> int
(** Fresh persistent sequence number for one consuming attempt. *)

(** {1 Nodes} *)

val alloc_node : t -> heap:Nvheap.Heap.t -> int list -> Nvram.Offset.t
(** Allocate from [heap] and persist an unlinked, live node carrying the
    given payload words. *)

val word : t -> Nvram.Offset.t -> int -> int
(** [word t node i] is payload word [i]. *)

val next_cell : t -> Nvram.Offset.t -> Nvram.Offset.t
(** The node's [next] word. *)

val claimer_cell : t -> Nvram.Offset.t -> Nvram.Offset.t
(** The node's [claimer] word. *)

val is_live : t -> Nvram.Offset.t -> bool
(** The node is unclaimed. *)

val claim : t -> Nvram.Offset.t -> pid:int -> seq:int -> bool
(** CAS the node's claimer from 0 to the [(pid, seq)] token and persist
    it on success. *)

val cas_ptr : t -> Nvram.Offset.t -> expected:int -> desired:int -> bool
(** CAS a pointer cell and persist it on success. *)

val try_push : t -> cell:Nvram.Offset.t -> node:Nvram.Offset.t -> bool
(** One attempt to push [node] at the head cell [cell]: [next] is persisted
    before the CAS, so the chain is never torn; [false] if another push
    won the cell. *)

(** {1 Walks} *)

val fold :
  t -> entry:Nvram.Offset.t -> ('a -> Nvram.Offset.t -> 'a) -> 'a -> 'a
(** Every node reachable from [entry], in chain order. *)

val find :
  t -> entry:Nvram.Offset.t -> (Nvram.Offset.t -> bool) -> Nvram.Offset.t option
(** The first node from [entry] satisfying the predicate; stops there. *)

val is_linked : t -> entry:Nvram.Offset.t -> node:Nvram.Offset.t -> bool
(** Insert evidence: [node] is reachable from [entry]. *)

val link_recover :
  t -> entry:Nvram.Offset.t -> node:Nvram.Offset.t -> (unit -> unit) -> unit
(** [link_recover t ~entry ~node link] completes an interrupted insert:
    runs [link] unless [node] is already reachable. *)

val claim_recover :
  t ->
  entry:Nvram.Offset.t ->
  pid:int ->
  seq:int ->
  (Nvram.Offset.t -> 'a) ->
  (unit -> 'a) ->
  'a
(** [claim_recover t ~entry ~pid ~seq read retry] completes an interrupted
    consuming attempt: [read] the node carrying the token [(pid, seq)] if
    the attempt claimed one (the walk covers the whole chain), else
    [retry ()] — the attempt never took effect. *)

val to_list : t -> entry:Nvram.Offset.t -> int list
(** Payload word 0 of every live node, in chain order. *)

val live_nodes : t -> Nvram.Offset.t list -> Nvram.Offset.t list
(** Every node reachable from the given entries (GC roots for
    [Heap.retain]). *)
