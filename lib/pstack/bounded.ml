module Offset = Nvram.Offset

exception Overflow = Run.Overflow

type t = Run.t

let create pmem ~base ~capacity =
  Run.create pmem ~name:"bounded" ~block:base ~limit:(Offset.add base capacity)

let attach ?report pmem ~base ~capacity =
  Run.attach ?report pmem ~name:"bounded" ~block:base
    ~limit:(Offset.add base capacity)

let base t = (Run.top_slot t).Run.block

let capacity t =
  let s = Run.top_slot t in
  Offset.diff s.Run.limit s.Run.block

let used_bytes t =
  let s = Run.top_slot t in
  Offset.diff s.Run.off s.Run.block + s.Run.size

let pmem = Run.pmem
let unsafe_push = Run.push
let push t ~func_id ~args = Run.push t ~func_id ~args
let pop = Run.pop
let depth = Run.depth
let top = Run.top
let top_offset = Run.top_offset
let under_top_offset = Run.under_top_offset
let frames = Run.frames
let live_blocks _t = []
