module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap

exception Overflow = Run.Overflow

type t = { run : Run.t; heap : Heap.t; block_size : int }

let name = "linked"
let default_block_size = 256
let block_size t = t.block_size

let create pmem ~heap ~anchor ?(block_size = default_block_size) () =
  let dummy = Frame.ordinary_size ~args_len:0 in
  let block =
    Run.alloc_block heap (max block_size (dummy + Frame.pointer_size))
  in
  let run = Run.create pmem ~name ~block ~limit:(Run.limit_of heap block) in
  Run.publish pmem ~anchor block;
  { run; heap; block_size }

(* [block_size] defaults to [default_block_size] only for callers that
   genuinely don't know the original configuration; a recovery path must
   pass the size recorded at creation (e.g. from the system superblock) or
   every post-crash cross-block push silently reverts to 256-byte blocks. *)
let attach ?report pmem ~heap ?(block_size = default_block_size) ~anchor () =
  let block, limit = Run.anchored pmem heap ~name ~anchor in
  (* A truncated tail's emptied block leaks until root-based heap
     reclamation collects it. *)
  let follow next =
    match Run.limit_of heap next with
    | limit -> Ok limit
    | exception Invalid_argument reason ->
        Error
          (Printf.sprintf "pointer frame does not reference a heap block (%s)"
             reason)
  in
  {
    run = Run.attach ?report ~follow pmem ~name ~block ~limit;
    heap;
    block_size;
  }

let push t ~func_id ~args =
  let size = Frame.ordinary_size ~args_len:(Bytes.length args) in
  let top = Run.top_slot t.run in
  let free_at = Offset.add top.Run.off top.Run.size in
  (* Accept a frame in the current block only if a pointer frame would
     still fit after it, so the block can always be chained later. *)
  if Offset.diff top.Run.limit free_at >= size + Frame.pointer_size then
    Run.push t.run ~func_id ~args
  else begin
    (* Cross-block push: new frame and pointer frame are both written and
       flushed while still beyond the stack end; the single marker flip on
       the current top then linearizes the invocation (Appendix A.3). *)
    let pmem = Run.pmem t.run in
    let block =
      Run.alloc_block t.heap (max t.block_size (size + Frame.pointer_size))
    in
    let limit = Run.limit_of t.heap block in
    Run.write_frame t.run ~flush:true ~off:block ~func_id ~args;
    Pmem.write_bytes pmem ~off:free_at
      (Frame.encode_pointer ~next:block ~marker:Frame.marker_frame_end);
    Pmem.flush pmem ~off:free_at ~len:Frame.pointer_size;
    Run.commit t.run ~off:block ~size ~func_id ~args ~block ~limit
  end

let pop t =
  let block = (Run.top_slot t.run).Run.block in
  Run.pop t.run;
  (* A top frame alone in its block: the pop moved the stack end onto the
     frame before the pointer frame, so the emptied block is freed
     (Fig. 8). *)
  if not (Offset.equal block (Run.top_slot t.run).Run.block) then
    Heap.free t.heap block

(* The blocks the slots live in, bottom to top; every block but the first
   starts after a pointer frame. *)
let blocks t =
  let acc = ref [] in
  Run.iter
    (fun s ->
      match !acc with
      | b :: _ when Offset.equal b s.Run.block -> ()
      | _ -> acc := s.Run.block :: !acc)
    t.run;
  List.rev !acc

let block_count t = List.length (blocks t)
let live_blocks = blocks

let used_bytes t =
  let bytes = ref 0 in
  Run.iter (fun s -> bytes := !bytes + s.Run.size) t.run;
  !bytes + (Frame.pointer_size * (block_count t - 1))

let pmem t = Run.pmem t.run
let depth t = Run.depth t.run
let top t = Run.top t.run
let top_offset t = Run.top_offset t.run
let under_top_offset t = Run.under_top_offset t.run
let frames t = Run.frames t.run
