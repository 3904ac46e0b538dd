module Crash = Nvram.Crash

type footprint = {
  access : Crash.access option;
  reads : (int * int) list;
}

let empty = { access = None; reads = [] }

(* The read footprint of a transition is reported by the *next* point of
   the same execution; the final transition of a trace has no successor,
   so the explorer gives it every line — conservative, never unsound. *)
let universe = [ (0, max_int) ]

let ranges_overlap (a, b) (c, d) = a <= d && c <= b

let range_hits r ranges = List.exists (ranges_overlap r) ranges

let op_range f =
  match f.access with
  | None -> None
  | Some a -> Some (a.Crash.first_line, a.Crash.last_line)

(* Transitions in the cooperative scheduler are "execute the pending
   write-class op, then run device reads up to the next write-class
   entry": only write-class entries yield, so every store/flush/CAS sits
   at the head of its transition and every read belongs to the tail of
   one.  Two transitions of different workers commute unless some
   mutation of one touches lines the other mutates or reads; two reads
   always commute.  [access = None] is a worker-startup transition
   (reads only, no head op), not an unknown. *)
let dependent f1 f2 =
  let o1 = op_range f1 and o2 = op_range f2 in
  (match (o1, o2) with
  | Some r1, Some r2 -> ranges_overlap r1 r2
  | None, _ | _, None -> false)
  || (match o1 with Some r -> range_hits r f2.reads | None -> false)
  || match o2 with Some r -> range_hits r f1.reads | None -> false
