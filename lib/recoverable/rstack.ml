module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap

(* Region layout:
   base+0           top pointer (0 = empty chain)
   base+64 + 64*p   per-process pop sequence counters

   Nodes are one-word chain nodes ({!Chain}): +0 value  +8 next
   +16 claimer.  Unlike the queue there is no dummy node: the chain simply
   starts at the newest node, and consumed nodes remain chained below. *)

type t = { chain : Chain.t; heap : Heap.t; top : Offset.t }

let region_size ~nprocs = 64 + (64 * nprocs)

let attach pmem ~heap ~base ~nprocs =
  {
    chain =
      Chain.make ~name:"Rstack" pmem ~seq_base:(Offset.add base 64) ~nprocs
        ~payload:1;
    heap;
    top = base;
  }

let create pmem ~heap ~base ~nprocs =
  let t = attach pmem ~heap ~base ~nprocs in
  Pmem.write_int pmem t.top 0;
  Pmem.flush pmem ~off:t.top ~len:8;
  Chain.init_seqs t.chain;
  t

let chain t = t.chain

let rec link t ~node =
  if not (Chain.try_push t.chain ~cell:t.top ~node) then link t ~node

let is_linked t ~node = Chain.is_linked t.chain ~entry:t.top ~node

let link_recover t ~node =
  Chain.link_recover t.chain ~entry:t.top ~node (fun () -> link t ~node)

(* Claim the top-most live node, walked from the top pointer. *)
let rec take t ~pid ~seq =
  Chain.check_pid t.chain pid;
  match Chain.find t.chain ~entry:t.top (Chain.is_live t.chain) with
  | None -> None
  | Some node ->
      if Chain.claim t.chain node ~pid ~seq then
        Some (Chain.word t.chain node 0)
      else take t ~pid ~seq (* lost the race; re-walk *)

let take_recover t ~pid ~seq =
  Chain.claim_recover t.chain ~entry:t.top ~pid ~seq
    (fun node -> Some (Chain.word t.chain node 0))
    (fun () -> take t ~pid ~seq)

let push t value =
  link t ~node:(Chain.alloc_node t.chain ~heap:t.heap [ value ])

let pop t ~pid =
  let seq = Chain.bump t.chain ~pid in
  take t ~pid ~seq

let to_list t = Chain.to_list t.chain ~entry:t.top
let length t = List.length (to_list t)
let live_nodes t = Chain.live_nodes t.chain [ t.top ]
