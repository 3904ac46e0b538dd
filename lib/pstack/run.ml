module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap

exception Overflow

type slot = {
  mutable off : Offset.t;
  mutable size : int;
  mutable func_id : int;
  mutable args : bytes;
  mutable block : Offset.t;
  mutable limit : Offset.t;
}

(* Slots are mutable and reused across push/pop cycles: the hot path of a
   workload that pushes and pops at a steady depth allocates nothing,
   which matters because per-operation allocations feed the minor GC,
   whose collections stop the world across all domains. *)
type t = {
  pmem : Pmem.t;
  name : string;
  mutable slots : slot array;
      (* slots [0, count); slot 0 is the dummy frame, slot [count-1] the top *)
  mutable count : int;
  mutable scratch : bytes;
      (* frame staging buffer, reused whenever consecutive pushes encode
         the same frame size (the common case) *)
}

let pmem t = t.pmem
let depth t = t.count - 1
let top_slot t = t.slots.(t.count - 1)

let iter f t =
  for i = 0 to t.count - 1 do
    f t.slots.(i)
  done

let empty_stack t what =
  invalid_arg
    (String.capitalize_ascii t.name ^ "." ^ what ^ ": stack is empty")

let fresh_slot _ =
  {
    off = Offset.null;
    size = 0;
    func_id = 0;
    args = Bytes.empty;
    block = Offset.null;
    limit = Offset.null;
  }

let make pmem name =
  {
    pmem;
    name;
    slots = Array.init 8 fresh_slot;
    count = 0;
    scratch = Bytes.empty;
  }

let add t ~off ~size ~func_id ~args ~block ~limit =
  let n = Array.length t.slots in
  if t.count = n then
    t.slots <-
      Array.init (2 * n) (fun i -> if i < n then t.slots.(i) else fresh_slot i);
  let s = t.slots.(t.count) in
  s.off <- off;
  s.size <- size;
  s.func_id <- func_id;
  s.args <- args;
  s.block <- block;
  s.limit <- limit;
  t.count <- t.count + 1

let write_frame t ~flush ~off ~func_id ~args =
  let size = Frame.ordinary_size ~args_len:(Bytes.length args) in
  if Bytes.length t.scratch <> size then t.scratch <- Bytes.create size;
  Frame.encode_ordinary_into t.scratch ~func_id ~args
    ~marker:Frame.marker_stack_end;
  Pmem.write_bytes t.pmem ~off t.scratch;
  if flush then Pmem.flush t.pmem ~off ~len:size

let set_marker t s ~marker ~flush =
  let at = Frame.marker_offset ~at:s.off ~size:s.size in
  Pmem.write_byte t.pmem at marker;
  if flush then Pmem.flush_byte t.pmem at

let create pmem ~name ~block ~limit =
  let t = make pmem name in
  let size = Frame.ordinary_size ~args_len:0 in
  if Offset.diff limit block < size then
    invalid_arg (String.capitalize_ascii name ^ ".create: capacity too small");
  let func_id = Frame.dummy_func_id and args = Bytes.empty in
  write_frame t ~flush:true ~off:block ~func_id ~args;
  add t ~off:block ~size ~func_id ~args ~block ~limit;
  t

let attach ?(report = ignore) ?follow pmem ~name ~block ~limit =
  let t = make pmem name in
  (* A corrupt tail after at least one good frame is an unfinished push —
     possibly widened by a torn line or bit rot — and is discarded by
     re-asserting the stack end on the last good frame.  A pointer frame
     above that frame belongs to the discarded push and goes with it.
     Corruption at the dummy frame leaves nothing to truncate to:
     structured fatal. *)
  let truncate (corruption : Frame.corruption) =
    if t.count = 0 then
      Repair.corrupt_stack ~stack:name ~at:corruption.Frame.at
        corruption.Frame.reason
    else begin
      set_marker t (top_slot t) ~marker:Frame.marker_stack_end ~flush:true;
      Repair.note_truncation ();
      report
        (Repair.Truncated_tail
           {
             stack = name;
             at = corruption.Frame.at;
             frames_kept = t.count;
             corruption;
           })
    end
  in
  let damaged at reason = truncate { Frame.at; reason; crc_mismatch = false } in
  let smallest =
    match follow with
    | None -> Frame.ordinary_size ~args_len:0
    | Some _ -> Frame.pointer_size
  in
  let rec scan ~block ~limit off =
    if Offset.diff limit off < smallest then
      damaged off "frame runs past capacity"
    else
      match Frame.read pmem ~at:off with
      | Error corruption -> truncate corruption
      | Ok (Frame.Ordinary { size; _ }) when Offset.diff limit off < size ->
          damaged off "frame runs past capacity"
      | Ok (Frame.Ordinary { frame; size; last }) ->
          add t ~off ~size ~func_id:frame.Frame.func_id ~args:frame.Frame.args
            ~block ~limit;
          if not last then scan ~block ~limit (Offset.add off size)
      | Ok (Frame.Pointer { next; last; _ }) -> (
          match follow with
          | None -> damaged off ("pointer frame in a " ^ name ^ " stack")
          | Some _ when last -> damaged off "pointer frame marked as stack top"
          | Some _ when Offset.equal off block ->
              (* the index hangs a pointer frame on the frame before it *)
              damaged off "pointer frame opens a block"
          | Some follow -> (
              match follow next with
              | Ok limit -> scan ~block:next ~limit next
              | Error reason -> damaged off reason))
  in
  scan ~block ~limit block;
  t

let commit ?(flush_marker = true) t ~off ~size ~func_id ~args ~block ~limit =
  (* Moving the stack end forward: flip the previous top's marker.  The
     single-byte flush is the linearization point of the invocation. *)
  set_marker t (top_slot t) ~marker:Frame.marker_frame_end ~flush:flush_marker;
  add t ~off ~size ~func_id ~args ~block ~limit

let push ?(flush_frame = true) ?flush_marker t ~func_id ~args =
  let top = top_slot t in
  let off = Offset.add top.off top.size in
  let size = Frame.ordinary_size ~args_len:(Bytes.length args) in
  if Offset.diff top.limit off < size then raise Overflow;
  write_frame t ~flush:flush_frame ~off ~func_id ~args;
  commit ?flush_marker t ~off ~size ~func_id ~args ~block:top.block
    ~limit:top.limit

let pop t =
  if t.count < 2 then empty_stack t "pop";
  (* Moving the stack end backward: one atomic byte flush; the popped
     frame's bytes become invalid data. *)
  set_marker t t.slots.(t.count - 2) ~marker:Frame.marker_stack_end ~flush:true;
  t.count <- t.count - 1

let frame_of s = (s.off, { Frame.func_id = s.func_id; args = s.args })
let top t = if t.count < 2 then None else Some (frame_of (top_slot t))
let top_offset t = (top_slot t).off

let under_top_offset t =
  if t.count < 2 then empty_stack t "under_top_offset"
  else t.slots.(t.count - 2).off

let frames t = List.init (t.count - 1) (fun i -> frame_of t.slots.(i + 1))

let alloc_block heap n =
  match Heap.alloc heap n with
  | payload -> payload
  | exception Heap.Out_of_heap_memory _ -> raise Overflow

let limit_of heap payload = Offset.add payload (Heap.payload_size heap payload)

let publish pmem ~anchor payload =
  Pmem.write_int pmem anchor (Offset.to_int payload);
  Pmem.flush pmem ~off:anchor ~len:8

let anchored pmem heap ~name ~anchor =
  let payload = Offset.of_int (Pmem.read_int pmem anchor) in
  (* A rotted anchor points at garbage: [payload_size] refuses, and with no
     block there is no good prefix to truncate to — structured fatal. *)
  match limit_of heap payload with
  | limit -> (payload, limit)
  | exception Invalid_argument reason ->
      Repair.corrupt_stack ~stack:name ~at:anchor
        (Printf.sprintf "anchor does not reference a heap block (%s)" reason)
