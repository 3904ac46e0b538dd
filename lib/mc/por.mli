(** Access footprints and the dependence relation for dynamic
    partial-order reduction (Flanagan & Godefroid, POPL 2005).

    A {e transition} of the cooperative scheduler ({!Runtime.Coop}) is coarser
    than one device operation: choosing worker [j] executes the
    write-class operation [j] is suspended at, then lets [j] run — through
    any number of device {e reads} — until its next write-class entry.
    The reduction therefore describes a transition by a footprint: the
    head operation's access (from [Coop.point.pending]) plus the read
    ranges collected while the step ran (the next point's [prev_reads]).

    Soundness of the dependence test rests on the yield discipline: only
    stores, flushes and CAS yield ([Crash.sched_point]), reads never do
    ([Crash.note_read]), so a transition's only mutation is its head op
    and everything else it touches is in [reads]. *)

type footprint = {
  access : Nvram.Crash.access option;
      (** Head operation of the transition; [None] for worker-startup
          transitions, which execute no write-class op (their first one
          yields before taking effect). *)
  reads : (int * int) list;  (** Line ranges read by the transition. *)
}

val empty : footprint

val universe : (int * int) list
(** The every-line read set [[(0, max_int)]] — stands in for the unknown
    reads of a trace's final transition (no successor point reports
    them). *)

val ranges_overlap : int * int -> int * int -> bool
(** Inclusive line ranges share at least one line. *)

val dependent : footprint -> footprint -> bool
(** Whether two transitions (of different workers) may fail to commute:
    some head op of one overlaps the head op or the reads of the other.
    Read-read overlaps are independent.  Conservative where it must be —
    overlapping flushes are treated as dependent even though same-value
    write-backs commute. *)
