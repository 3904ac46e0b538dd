module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap

(* Region layout:
   base+0   head pointer (performance hint)
   base+8   tail pointer (performance hint)
   base+16  first node — the permanent entry to the chain; recovery
            evidence walks start here and are immune to head advances
   base+64 + 64*p   per-process dequeue sequence counter

   Nodes are one-word chain nodes ({!Chain}): +0 value  +8 next
   +16 claimer.  The first node is pre-claimed (a dummy in Michael-Scott
   style). *)

type t = { chain : Chain.t; pmem : Pmem.t; heap : Heap.t; base : Offset.t }

let head_off t = t.base
let tail_off t = Offset.add t.base 8
let first_off t = Offset.add t.base 16
let region_size ~nprocs = 64 + (64 * nprocs)

let dummy_claim = 1L

let read_ptr t off = Pmem.read_int t.pmem off

let write_ptr t off v =
  Pmem.write_int t.pmem off v;
  Pmem.flush t.pmem ~off ~len:8

let attach pmem ~heap ~base ~nprocs =
  {
    chain =
      Chain.make ~name:"Rqueue" pmem ~seq_base:(Offset.add base 64) ~nprocs
        ~payload:1;
    pmem;
    heap;
    base;
  }

let create pmem ~heap ~base ~nprocs =
  let t = attach pmem ~heap ~base ~nprocs in
  let dummy = Chain.alloc_node t.chain ~heap [ 0 ] in
  let claimer = Chain.claimer_cell t.chain dummy in
  Pmem.write_int64 pmem claimer dummy_claim;
  Pmem.flush pmem ~off:claimer ~len:8;
  write_ptr t (head_off t) (Offset.to_int dummy);
  write_ptr t (tail_off t) (Offset.to_int dummy);
  write_ptr t (first_off t) (Offset.to_int dummy);
  Chain.init_seqs t.chain;
  t

let chain t = t.chain
let next_of t node = Chain.next_cell t.chain (Offset.of_int node)

(* Advance a lagging pointer cell from [seen] to [node]; failures mean
   someone else helped already. *)
let advance t cell ~seen ~node =
  ignore (Chain.cas_ptr t.chain cell ~expected:seen ~desired:node)

let rec link t ~node =
  let tail = read_ptr t (tail_off t) in
  let next = read_ptr t (next_of t tail) in
  if next = 0 then begin
    if
      Chain.cas_ptr t.chain (next_of t tail) ~expected:0
        ~desired:(Offset.to_int node)
    then
      (* linked — the linearization point; persisting the link happened in
         [cas_ptr].  Help the tail along. *)
      advance t (tail_off t) ~seen:tail ~node:(Offset.to_int node)
    else link t ~node
  end
  else begin
    (* tail lags: help and retry *)
    advance t (tail_off t) ~seen:tail ~node:next;
    link t ~node
  end

let is_linked t ~node = Chain.is_linked t.chain ~entry:(first_off t) ~node

let link_recover t ~node =
  Chain.link_recover t.chain ~entry:(first_off t) ~node (fun () -> link t ~node)

let rec take t ~pid ~seq =
  Chain.check_pid t.chain pid;
  let head = read_ptr t (head_off t) in
  let next = read_ptr t (next_of t head) in
  if next = 0 then None
  else begin
    let node = Offset.of_int next in
    if Chain.claim t.chain node ~pid ~seq then begin
      (* claimed — the linearization point; move the head hint past it *)
      advance t (head_off t) ~seen:head ~node:next;
      Some (Chain.word t.chain node 0)
    end
    else begin
      (* someone else consumed it; help the head along and retry *)
      advance t (head_off t) ~seen:head ~node:next;
      take t ~pid ~seq
    end
  end

let take_recover t ~pid ~seq =
  Chain.claim_recover t.chain ~entry:(first_off t) ~pid ~seq
    (fun node -> Some (Chain.word t.chain node 0))
    (fun () -> take t ~pid ~seq)

let enqueue t value =
  link t ~node:(Chain.alloc_node t.chain ~heap:t.heap [ value ])

let dequeue t ~pid =
  let seq = Chain.bump t.chain ~pid in
  take t ~pid ~seq

let to_list t = Chain.to_list t.chain ~entry:(first_off t)
let length t = List.length (to_list t)
let live_nodes t = Chain.live_nodes t.chain [ first_off t ]
