module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap

(* Region layout:
   base+0 .. 8*buckets           bucket head pointers (0 = empty)
   align 64: + 64*p              per-process remove sequence counters

   Nodes are two-word chain nodes ({!Chain}): +0 key  +8 value  +16 next
   +24 claimer.  The newest version of a key sits closest to its bucket's
   head; the key's state is the state of its newest version node. *)

type t = { chain : Chain.t; heap : Heap.t; base : Offset.t; buckets : int }

let align n a = (n + a - 1) / a * a
let seq_area ~buckets = align (8 * buckets) 64
let region_size ~buckets ~nprocs = seq_area ~buckets + (64 * nprocs)
let bucket_off t b = Offset.add t.base (8 * b)
let is_power_of_two n = n > 0 && n land (n - 1) = 0

let buckets_for_device size =
  let rec grow b = if 2 * b * 65536 <= size then grow (2 * b) else b in
  grow 64

let hash t key =
  (* Fibonacci mixing, masked to the bucket count *)
  let h = key * 0x2545F4914F6CDD1D in
  (h lsr 17) land (t.buckets - 1)

let key_of t node = Chain.word t.chain node 0
let value_of t node = Chain.word t.chain node 1
let bucket_of_key t key = bucket_off t (hash t key)
let bucket_of_node t node = bucket_of_key t (key_of t node)

let attach pmem ~heap ~base ~buckets ~nprocs =
  if not (is_power_of_two buckets) then
    invalid_arg "Rmap: bucket count must be a power of two";
  if nprocs < 1 then invalid_arg "Rmap: nprocs must be positive";
  {
    chain =
      Chain.make ~name:"Rmap" pmem
        ~seq_base:(Offset.add base (seq_area ~buckets))
        ~nprocs ~payload:2;
    heap;
    base;
    buckets;
  }

let create pmem ~heap ~base ~buckets ~nprocs =
  let t = attach pmem ~heap ~base ~buckets ~nprocs in
  for b = 0 to buckets - 1 do
    Pmem.write_int pmem (bucket_off t b) 0
  done;
  Pmem.flush pmem ~off:t.base ~len:(8 * buckets);
  Chain.init_seqs t.chain;
  t

let chain t = t.chain

(* Link a fresh node at its bucket's head; the head CAS is the
   linearization point. *)
let rec link t ~node =
  if not (Chain.try_push t.chain ~cell:(bucket_of_node t node) ~node) then
    link t ~node

let is_linked t ~node =
  Chain.is_linked t.chain ~entry:(bucket_of_node t node) ~node

let link_recover t ~node =
  Chain.link_recover t.chain ~entry:(bucket_of_node t node) ~node (fun () ->
      link t ~node)

(* The newest version node of [key], if any. *)
let newest t ~key =
  Chain.find t.chain ~entry:(bucket_of_key t key) (fun node ->
      key_of t node = key)

let find t ~key =
  match newest t ~key with
  | Some node when Chain.is_live t.chain node -> Some (value_of t node)
  | Some _ | None -> None

let rec claim_newest t ~pid ~seq ~key =
  Chain.check_pid t.chain pid;
  match newest t ~key with
  | None -> false
  | Some node ->
      if not (Chain.is_live t.chain node) then
        false (* the newest version is claimed: the key is absent *)
      else if Chain.claim t.chain node ~pid ~seq then true
      else
        (* lost the race; a newer version may also have been linked since
           the walk — start over *)
        claim_newest t ~pid ~seq ~key

let claim_recover t ~pid ~seq ~key =
  Chain.claim_recover t.chain ~entry:(bucket_of_key t key) ~pid ~seq
    (fun _ -> true)
    (fun () -> claim_newest t ~pid ~seq ~key)

let put t ~key ~value =
  link t ~node:(Chain.alloc_node t.chain ~heap:t.heap [ key; value ])

let remove t ~pid ~key =
  let seq = Chain.bump t.chain ~pid in
  claim_newest t ~pid ~seq ~key

let entries t = List.init t.buckets (bucket_off t)

let bindings t =
  List.fold_left
    (fun acc entry ->
      (* the first node seen per key decides its state *)
      let seen = Hashtbl.create 8 in
      Chain.fold t.chain ~entry
        (fun acc node ->
          let key = key_of t node in
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.add seen key ();
            if Chain.is_live t.chain node then (key, value_of t node) :: acc
            else acc
          end)
        acc)
    [] (entries t)

let cardinal t = List.length (bindings t)
let live_nodes t = Chain.live_nodes t.chain (entries t)
