module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap

exception Overflow = Run.Overflow

type t = {
  run : Run.t;
  heap : Heap.t;
  anchor : Offset.t;
  mutable resize_count : int;
}

let name = "resizable"
let min_capacity = 64
let resize_count t = t.resize_count
let block t = (Run.top_slot t.run).Run.block

let capacity t =
  let s = Run.top_slot t.run in
  Offset.diff s.Run.limit s.Run.block

let used_bytes t =
  let s = Run.top_slot t.run in
  Offset.diff s.Run.off s.Run.block + s.Run.size

let create pmem ~heap ~anchor ?(initial_capacity = min_capacity) () =
  let block = Run.alloc_block heap (max initial_capacity min_capacity) in
  let run = Run.create pmem ~name ~block ~limit:(Run.limit_of heap block) in
  Run.publish pmem ~anchor block;
  { run; heap; anchor; resize_count = 0 }

let attach ?report pmem ~heap ~anchor =
  let block, limit = Run.anchored pmem heap ~name ~anchor in
  {
    run = Run.attach ?report pmem ~name ~block ~limit;
    heap;
    anchor;
    resize_count = 0;
  }

(* Copy the live stack bytes into a block of [new_capacity] bytes, flush the
   copy, then commit by flipping the anchor (atomic 8-byte flush), move the
   index onto the new block and free the old one.  A crash before the flip
   leaves the old block current; a crash after it leaves the new one; the
   non-current block is reclaimed by root-based heap reclamation at system
   recovery. *)
let resize t new_capacity =
  let pmem = Run.pmem t.run in
  let used = used_bytes t in
  assert (new_capacity >= used);
  let old_block = block t in
  let new_block = Run.alloc_block t.heap new_capacity in
  let data = Pmem.read_bytes pmem ~off:old_block ~len:used in
  Pmem.write_bytes pmem ~off:new_block data;
  Pmem.flush pmem ~off:new_block ~len:used;
  Run.publish pmem ~anchor:t.anchor new_block;
  let delta = Offset.diff new_block old_block in
  let limit = Run.limit_of t.heap new_block in
  Run.iter
    (fun s ->
      s.Run.off <- Offset.add s.Run.off delta;
      s.Run.block <- new_block;
      s.Run.limit <- limit)
    t.run;
  t.resize_count <- t.resize_count + 1;
  Heap.free t.heap old_block

let push t ~func_id ~args =
  let needed =
    used_bytes t + Frame.ordinary_size ~args_len:(Bytes.length args)
  in
  if needed > capacity t then resize t (max (2 * capacity t) needed);
  Run.push t.run ~func_id ~args

let pop t =
  Run.pop t.run;
  (* Shrink when capacity > 4 * size (Appendix A.2). *)
  let used = used_bytes t in
  let target = max min_capacity (2 * used) in
  if capacity t > 4 * used && target < capacity t then resize t target

let pmem t = Run.pmem t.run
let depth t = Run.depth t.run
let top t = Run.top t.run
let top_offset t = Run.top_offset t.run
let under_top_offset t = Run.under_top_offset t.run
let frames t = Run.frames t.run
let live_blocks t = [ block t ]
