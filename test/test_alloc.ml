(* Allocation pins for the hot paths (DESIGN.md section 10): with
   observability off, every 1-2-line device operation, a push/pop inside
   one block of each persistent stack and a heap alloc/free must allocate
   nothing on the minor heap, in both flush modes.  Minor collections stop
   every domain in OCaml 5, so one boxed word per device access is enough
   to bring back the multicore anti-scaling these paths were rewritten to
   remove. *)

module Pmem = Nvram.Pmem
module Heap = Nvheap.Heap
module Bounded = Pstack.Bounded
module Resizable = Pstack.Resizable
module Linked = Pstack.Linked

let off = Nvram.Offset.of_int
let iters = 10_000
let budget = 0.01 (* minor words per op *)

let words_per_op f =
  (* one warm-up call: first-use growth (a pending log's buffer) is
     amortised state, not a per-op cost *)
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let check_path flush_mode name f =
  let words = words_per_op f in
  if words > budget then
    Alcotest.failf "%s (%s): %.3f minor words/op > %.2f" name
      (match flush_mode with Pmem.Eager -> "eager" | Coalesced -> "coalesced")
      words budget

let device_paths flush_mode () =
  Obs.Config.set_enabled false;
  let check = check_path flush_mode in
  let p = Pmem.create ~flush_mode ~size:4096 () in
  check "read_int" (fun () -> ignore (Pmem.read_int p (off 8)));
  check "write_int" (fun () -> Pmem.write_int p (off 8) 7);
  check "read_byte" (fun () -> ignore (Pmem.read_byte p (off 3)));
  check "write_byte" (fun () -> Pmem.write_byte p (off 3) 0xAB);
  check "write_int64" (fun () -> Pmem.write_int64 p (off 16) 42L);
  check "1-line flush" (fun () ->
      Pmem.write_int p (off 128) 1;
      Pmem.flush p ~off:(off 128) ~len:8;
      Pmem.persist_barrier p);
  (* bytes 248..263 cover lines 3 and 4 *)
  check "2-line flush" (fun () ->
      Pmem.write_int p (off 248) 1;
      Pmem.write_int p (off 256) 2;
      Pmem.flush p ~off:(off 248) ~len:16;
      Pmem.persist_barrier p);
  check "cas_int64" (fun () ->
      ignore (Pmem.cas_int64 p (off 512) ~expected:0L ~desired:0L));
  check "failed cas_int64" (fun () ->
      ignore (Pmem.cas_int64 p (off 512) ~expected:1L ~desired:2L))

let stack_and_heap flush_mode () =
  Obs.Config.set_enabled false;
  let check = check_path flush_mode in
  let p = Pmem.create ~flush_mode ~size:(1 lsl 20) () in
  let s = Bounded.create p ~base:(off 0) ~capacity:8192 in
  let args = Bytes.make 16 's' in
  check "bounded push/pop" (fun () ->
      Bounded.push s ~func_id:2 ~args;
      Bounded.pop s;
      Pmem.persist_barrier p);
  let heap = Heap.format ~arenas:1 p ~base:(off 8192) ~len:(1 lsl 19) in
  check "heap alloc/free" (fun () ->
      Heap.free heap (Heap.alloc heap 64);
      Pmem.persist_barrier p);
  (* the warm-up push grows the resizable stack's first block once; every
     later push and pop stays inside it, as they stay inside the linked
     stack's first block *)
  let r = Resizable.create p ~heap ~anchor:(off 540_672) () in
  check "resizable push/pop" (fun () ->
      Resizable.push r ~func_id:2 ~args;
      Resizable.pop r;
      Pmem.persist_barrier p);
  let l = Linked.create p ~heap ~anchor:(off 540_680) () in
  check "linked push/pop" (fun () ->
      Linked.push l ~func_id:2 ~args;
      Linked.pop l;
      Pmem.persist_barrier p)

let () =
  Alcotest.run "alloc"
    [
      ( "zero minor words",
        [
          Alcotest.test_case "device, eager" `Quick (device_paths Pmem.Eager);
          Alcotest.test_case "device, coalesced" `Quick
            (device_paths Pmem.Coalesced);
          Alcotest.test_case "stack and heap, eager" `Quick
            (stack_and_heap Pmem.Eager);
          Alcotest.test_case "stack and heap, coalesced" `Quick
            (stack_and_heap Pmem.Coalesced);
        ] );
    ]
