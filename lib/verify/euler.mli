(** Eulerian paths in directed multigraphs over integer vertices.

    Section 5.1 reduces serializability of a CAS execution to finding an
    Eulerian circuit (path) in the graph whose edges are the successful
    operations, starting at the initial register value and ending at the
    final one.  Hierholzer's algorithm finds such a path in O(V + E). *)

type t

val create : unit -> t

val add_edge : t -> int -> int -> unit
(** Multigraph: parallel edges accumulate. *)

val edge_count : t -> int

val degrees_admit_path : t -> src:int -> dst:int -> bool
(** The degree conditions for an Eulerian path from [src] to [dst]:
    balanced everywhere except [out - in = 1] at [src] and [-1] at [dst]
    (all balanced when [src = dst]).  Necessary but not sufficient
    (connectivity is checked by path construction). *)

val path : t -> src:int -> dst:int -> int list option
(** [path t ~src ~dst] is the vertex sequence of an Eulerian path using
    {e every} edge exactly once, or [None].  The sequence has
    [edge_count t + 1] vertices, starts at [src] and ends at [dst].  When
    the graph has no edges, the path is [[src]] iff [src = dst].
    [t] is not modified. *)
