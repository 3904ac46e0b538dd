module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap

(* Node (32 bytes from the heap):
   +0 .. 8*payload        payload words
   +8*payload             next (0 = end)
   +8*payload + 8         claimer token (0 = live) *)

type t = {
  name : string;
  pmem : Pmem.t;
  seq_base : Offset.t;
  nprocs : int;
  payload : int;
}

let node_size = 32

let make ~name pmem ~seq_base ~nprocs ~payload =
  { name; pmem; seq_base; nprocs; payload }

let seq_off t p = Offset.add t.seq_base (64 * p)
let word_off node i = Offset.add node (8 * i)
let next_cell t node = word_off node t.payload
let claimer_cell t node = word_off node (t.payload + 1)

let init_seqs t =
  for p = 0 to t.nprocs - 1 do
    Pmem.write_int t.pmem (seq_off t p) 0;
    Pmem.flush t.pmem ~off:(seq_off t p) ~len:8
  done

let check_pid t pid =
  if pid < 0 || pid >= t.nprocs then
    invalid_arg
      (Printf.sprintf "%s: pid %d out of 0..%d" t.name pid (t.nprocs - 1))

let bump t ~pid =
  check_pid t pid;
  let seq = Pmem.read_int t.pmem (seq_off t pid) + 1 in
  Pmem.write_int t.pmem (seq_off t pid) seq;
  Pmem.flush t.pmem ~off:(seq_off t pid) ~len:8;
  seq

(* [(pid + 1) << 32 | seq]: never 0, so a claimed node never reads as
   live. *)
let token ~pid ~seq =
  Int64.logor (Int64.shift_left (Int64.of_int (pid + 1)) 32) (Int64.of_int seq)

let alloc_node t ~heap words =
  if List.length words <> t.payload then
    invalid_arg (t.name ^ ": wrong node payload");
  let node = Heap.alloc heap node_size in
  List.iteri (fun i w -> Pmem.write_int t.pmem (word_off node i) w) words;
  Pmem.write_int t.pmem (next_cell t node) 0;
  Pmem.write_int64 t.pmem (claimer_cell t node) 0L;
  Pmem.flush t.pmem ~off:node ~len:(8 * (t.payload + 2));
  node

let word t node i = Pmem.read_int t.pmem (word_off node i)

let is_live t node =
  Int64.equal (Pmem.read_int64 t.pmem (claimer_cell t node)) 0L

let claim t node ~pid ~seq =
  let cell = claimer_cell t node in
  let ok = Pmem.cas_int64 t.pmem cell ~expected:0L ~desired:(token ~pid ~seq) in
  if ok then Pmem.flush t.pmem ~off:cell ~len:8;
  ok

let cas_ptr t cell ~expected ~desired =
  let ok =
    Pmem.cas_int64 t.pmem cell ~expected:(Int64.of_int expected)
      ~desired:(Int64.of_int desired)
  in
  if ok then Pmem.flush t.pmem ~off:cell ~len:8;
  ok

let try_push t ~cell ~node =
  let head = Pmem.read_int t.pmem cell in
  Pmem.write_int t.pmem (next_cell t node) head;
  Pmem.flush t.pmem ~off:(next_cell t node) ~len:8;
  cas_ptr t cell ~expected:head ~desired:(Offset.to_int node)

let fold t ~entry f acc =
  let rec go node acc =
    if node = 0 then acc
    else begin
      let off = Offset.of_int node in
      let acc = f acc off in
      go (Pmem.read_int t.pmem (next_cell t off)) acc
    end
  in
  go (Pmem.read_int t.pmem entry) acc

let find t ~entry pred =
  let rec go node =
    if node = 0 then None
    else begin
      let off = Offset.of_int node in
      if pred off then Some off else go (Pmem.read_int t.pmem (next_cell t off))
    end
  in
  go (Pmem.read_int t.pmem entry)

let is_linked t ~entry ~node =
  fold t ~entry (fun found off -> found || Offset.equal off node) false

let link_recover t ~entry ~node link =
  if not (is_linked t ~entry ~node) then link ()

let claim_recover t ~entry ~pid ~seq read retry =
  check_pid t pid;
  let tok = token ~pid ~seq in
  let claimed =
    fold t ~entry
      (fun found off ->
        match found with
        | Some _ -> found
        | None ->
            if Int64.equal (Pmem.read_int64 t.pmem (claimer_cell t off)) tok
            then Some (read off)
            else None)
      None
  in
  match claimed with Some v -> v | None -> retry ()

let to_list t ~entry =
  List.rev
    (fold t ~entry
       (fun acc off -> if is_live t off then word t off 0 :: acc else acc)
       [])

let live_nodes t entries =
  List.rev
    (List.fold_left
       (fun acc entry -> fold t ~entry (fun acc off -> off :: acc) acc)
       [] entries)
