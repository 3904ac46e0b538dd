module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Integrity = Nvram.Integrity

let magic = 0x4E565441534B5331L (* "NVTASKS1" *)
let header_size = 32
let entry_header = 32

type t = { pmem : Pmem.t; base : Offset.t; capacity : int; max_args : int }

let entry_size ~max_args = entry_header + ((max_args + 15) / 16 * 16)

let region_size ~capacity ~max_args =
  header_size + (capacity * entry_size ~max_args)

let count_off t = Offset.add t.base 24

let entry_off t i =
  Offset.add t.base (header_size + (i * entry_size ~max_args:t.max_args))

let create pmem ~base ~capacity ~max_args =
  let t = { pmem; base; capacity; max_args } in
  Pmem.write_int64 pmem base magic;
  Pmem.write_int pmem (Offset.add base 8) capacity;
  Pmem.write_int pmem (Offset.add base 16) max_args;
  Pmem.write_int pmem (count_off t) 0;
  Pmem.flush pmem ~off:base ~len:header_size;
  t

(* The status word commits a completion: 0 while pending, and once done a
   checksum of the task's index and answer, never 0.  A crash can tear the
   line of the status flush so that the new status word survives next to
   shredded answer bytes (or shred the status word itself); the word then
   no longer matches the answer beside it. *)
let done_word i answer =
  let h =
    Integrity.fnv64_int64
      (Integrity.fnv64_int64 Integrity.fnv64_init (Int64.of_int i))
      answer
  in
  if Int64.equal h 0L then 1L else h

exception Torn_completion of int

let attach pmem ~base =
  if not (Int64.equal (Pmem.read_int64 pmem base) magic) then
    invalid_arg "Task.attach: bad magic (not a task table)";
  let capacity = Pmem.read_int pmem (Offset.add base 8) in
  let max_args = Pmem.read_int pmem (Offset.add base 16) in
  { pmem; base; capacity; max_args }

let count t = Pmem.read_int t.pmem (count_off t)

let check_index t i =
  if i < 0 || i >= count t then
    invalid_arg (Printf.sprintf "Task: index %d out of bounds" i)

let add t ~func_id ~args =
  let i = count t in
  if i >= t.capacity then invalid_arg "Task.add: table is full";
  let args_len = Bytes.length args in
  if args_len > t.max_args then
    invalid_arg
      (Printf.sprintf "Task.add: %d argument bytes exceed the limit %d"
         args_len t.max_args);
  let e = entry_off t i in
  Pmem.write_int t.pmem e 0 (* pending *);
  Pmem.write_int t.pmem (Offset.add e 8) func_id;
  Pmem.write_int64 t.pmem (Offset.add e 16) 0L;
  Pmem.write_int t.pmem (Offset.add e 24) args_len;
  if args_len > 0 then Pmem.write_bytes t.pmem ~off:(Offset.add e 32) args;
  Pmem.flush t.pmem ~off:e ~len:(entry_header + args_len);
  (* Publishing the new count is the commit of the submission. *)
  Pmem.write_int t.pmem (count_off t) (i + 1);
  Pmem.flush t.pmem ~off:(count_off t) ~len:8;
  i

let func_id t i =
  check_index t i;
  Pmem.read_int t.pmem (Offset.add (entry_off t i) 8)

let args t i =
  check_index t i;
  let e = entry_off t i in
  let len = Pmem.read_int t.pmem (Offset.add e 24) in
  Pmem.read_bytes t.pmem ~off:(Offset.add e 32) ~len

let status t i =
  check_index t i;
  let e = entry_off t i in
  let word = Pmem.read_int64 t.pmem e in
  if Int64.equal word 0L then `Pending
  else
    let answer = Pmem.read_int64 t.pmem (Offset.add e 16) in
    if Integrity.enabled () && not (Int64.equal word (done_word i answer))
    then raise (Torn_completion i)
    else `Done answer

let mark_done t i answer =
  check_index t i;
  let e = entry_off t i in
  Pmem.write_int64 t.pmem (Offset.add e 16) answer;
  Pmem.flush t.pmem ~off:(Offset.add e 16) ~len:8;
  (* The status flush commits the completion. *)
  Pmem.write_int64 t.pmem e (done_word i answer);
  Pmem.flush t.pmem ~off:e ~len:8

let pending t =
  List.filter
    (fun i -> match status t i with `Pending -> true | `Done _ -> false)
    (List.init (count t) Fun.id)

let results t =
  List.map
    (fun i ->
      match status t i with
      | `Pending -> (i, None)
      | `Done answer -> (i, Some answer))
    (List.init (count t) Fun.id)
