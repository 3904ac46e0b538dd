(* Unit tests for the persistent heap allocator: allocation, splitting,
   freeing, coalescing, crash consistency of every commit protocol, offline
   recovery and root-based reclamation, and individual kills. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Heap = Nvheap.Heap

let off = Offset.of_int

let fresh_heap ?(size = 64 * 1024) ?(len = 32 * 1024) () =
  let pmem = Pmem.create ~size () in
  let heap = Heap.format pmem ~base:(off 64) ~len in
  (pmem, heap)

let check_ok heap =
  match Heap.check heap with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("heap invariant broken: " ^ msg)

(* A standalone heap recovery: attach, then the sweep that ends every
   system recovery. *)
let recover_swept pmem =
  let heap = Heap.recover pmem ~base:(off 64) in
  Heap.sweep heap;
  heap

let test_format () =
  let _, heap = fresh_heap () in
  check_ok heap;
  Alcotest.(check int) "one free block" 1 (Heap.block_count heap ~allocated:false);
  Alcotest.(check int) "no allocated blocks" 0
    (Heap.block_count heap ~allocated:true)

let test_alloc_free_roundtrip () =
  let pmem, heap = fresh_heap () in
  let a = Heap.alloc heap 100 in
  let b = Heap.alloc heap 200 in
  check_ok heap;
  Alcotest.(check bool) "payloads distinct" false (Offset.equal a b);
  Alcotest.(check bool) "payload size at least requested" true
    (Heap.payload_size heap a >= 100);
  Pmem.write_bytes pmem ~off:a (Bytes.make 100 'a');
  Pmem.write_bytes pmem ~off:b (Bytes.make 200 'b');
  Alcotest.(check int) "two allocated" 2 (Heap.block_count heap ~allocated:true);
  Heap.free heap a;
  Heap.free heap b;
  check_ok heap;
  Alcotest.(check int) "all freed" 0 (Heap.block_count heap ~allocated:true)

let test_reuse_after_free () =
  let _, heap = fresh_heap () in
  let before = Heap.free_bytes heap in
  let a = Heap.alloc heap 1000 in
  Heap.free heap a;
  let a' = Heap.alloc heap 1000 in
  Heap.free heap a';
  check_ok heap;
  Alcotest.(check bool) "no net loss after recover" true
    (Heap.free_bytes heap <= before)

let test_double_free_detected () =
  let _, heap = fresh_heap () in
  let a = Heap.alloc heap 64 in
  Heap.free heap a;
  Alcotest.check_raises "double free"
    (Invalid_argument "Heap: block is not allocated (double free?)") (fun () ->
      Heap.free heap a)

let test_out_of_memory () =
  let _, heap = fresh_heap ~size:8192 ~len:4096 () in
  match Heap.alloc heap 1_000_000 with
  | _ -> Alcotest.fail "expected Out_of_heap_memory"
  | exception Heap.Out_of_heap_memory { requested; largest_free } ->
      Alcotest.(check int) "requested" 1_000_000 requested;
      Alcotest.(check bool) "largest below request" true
        (largest_free < 1_000_000)

let test_exhaustion_and_refill () =
  let pmem, heap = fresh_heap ~size:8192 ~len:2048 () in
  let rec grab heap acc =
    match Heap.alloc heap 64 with
    | payload -> grab heap (payload :: acc)
    | exception Heap.Out_of_heap_memory _ -> acc
  in
  let blocks = grab heap [] in
  Alcotest.(check bool) "several blocks" true (List.length blocks > 5);
  List.iter (Heap.free heap) blocks;
  check_ok heap;
  (* After freeing everything, recovery coalesces back to one block, and
     that block refills to the same count. *)
  let heap = recover_swept pmem in
  check_ok heap;
  Alcotest.(check int) "coalesced to one free block" 1
    (Heap.block_count heap ~allocated:false);
  Alcotest.(check int) "refills" (List.length blocks)
    (List.length (grab heap []))

let test_recover_coalesces () =
  let pmem, heap = fresh_heap () in
  let blocks = List.init 8 (fun _ -> Heap.alloc heap 64) in
  List.iter (Heap.free heap) blocks;
  let heap = recover_swept pmem in
  check_ok heap;
  Alcotest.(check int) "coalesced to one free block" 1
    (Heap.block_count heap ~allocated:false)

let test_recover_preserves_allocated () =
  let pmem, heap = fresh_heap () in
  let keep = Heap.alloc heap 128 in
  Pmem.write_bytes pmem ~off:keep (Bytes.make 128 'k');
  Pmem.flush pmem ~off:keep ~len:128;
  Pmem.crash_and_restart pmem;
  let heap = Heap.recover pmem ~base:(off 64) in
  check_ok heap;
  Alcotest.(check int) "allocated block survives" 1
    (Heap.block_count heap ~allocated:true);
  Alcotest.(check string) "payload intact" (String.make 128 'k')
    (Bytes.to_string (Pmem.read_bytes pmem ~off:keep ~len:128))

let test_retain_reclaims_leaks () =
  let pmem, heap = fresh_heap () in
  let live = Heap.alloc heap 64 in
  let leaked = Heap.alloc heap 64 in
  ignore leaked;
  let freed = Heap.retain heap ~live:[ live ] in
  Alcotest.(check int) "one block reclaimed" 1 freed.Heap.blocks;
  Alcotest.(check bool) "reclaimed bytes cover the block" true
    (freed.Heap.bytes >= 64 + Heap.block_header_size);
  check_ok heap;
  Alcotest.(check int) "only live left" 1 (Heap.block_count heap ~allocated:true);
  ignore pmem

(* Crash-consistency sweep: run a workload crashing before every
   persistence operation in turn; after recovery the heap invariants must
   hold and previously persisted payloads must be intact. *)
let test_crash_point_sweep () =
  let workload heap =
    let a = Heap.alloc heap 40 in
    let b = Heap.alloc heap 500 in
    Heap.free heap a;
    let c = Heap.alloc heap 33 in
    Heap.free heap b;
    Heap.free heap c
  in
  (* Count persistence ops of a crash-free run. *)
  let total =
    let pmem, heap = fresh_heap () in
    workload heap;
    Crash.ops (Pmem.crash_ctl pmem)
  in
  Alcotest.(check bool) "workload persists something" true (total > 10);
  for point = 1 to total do
    let pmem, heap = fresh_heap () in
    Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op point);
    (try workload heap with Crash.Crash_now -> ());
    Pmem.crash_and_restart pmem;
    let recovered = Heap.recover pmem ~base:(off 64) in
    (match Heap.check recovered with
    | Ok () -> ()
    | Error msg ->
        Alcotest.failf "crash at op %d/%d broke the heap: %s" point total msg);
    (* The heap must still be fully usable. *)
    let x = Heap.alloc recovered 64 in
    Heap.free recovered x
  done

(* Repeated failures during recovery itself: crash recovery at every point
   and re-recover. *)
let test_crash_during_recovery () =
  let build () =
    let pmem, heap = fresh_heap () in
    let blocks = List.init 6 (fun _ -> Heap.alloc heap 64) in
    (* the last block freed sits next to the big free remainder *)
    List.iteri (fun i b -> if i mod 2 = 1 then Heap.free heap b) blocks;
    pmem
  in
  let total =
    let pmem = build () in
    Crash.arm (Pmem.crash_ctl pmem) Crash.Never;
    let before = Crash.ops (Pmem.crash_ctl pmem) in
    ignore (recover_swept pmem);
    Crash.ops (Pmem.crash_ctl pmem) - before
  in
  Alcotest.(check bool) "recovery writes" true (total > 0);
  for point = 1 to total do
    let pmem = build () in
    Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op point);
    (try ignore (recover_swept pmem) with Crash.Crash_now -> ());
    Pmem.crash_and_restart pmem;
    let recovered = recover_swept pmem in
    match Heap.check recovered with
    | Ok () -> ()
    | Error msg ->
        Alcotest.failf "re-recovery after crash at op %d failed: %s" point msg
  done

let test_open_existing_validates_magic () =
  let pmem = Pmem.create ~size:4096 () in
  Alcotest.check_raises "bad magic"
    (Invalid_argument "Heap.open_existing: bad magic (not a heap region)")
    (fun () -> ignore (Heap.open_existing pmem ~base:(off 0)))

(* ------------------------------------------------------------------ *)
(* Per-domain arenas *)

let fresh_arena_heap ?(arenas = 4) ?(size = 64 * 1024) ?(len = 32 * 1024) ()
    =
  let pmem = Pmem.create ~size () in
  let heap = Heap.format ~arenas pmem ~base:(off 64) ~len in
  (pmem, heap)

let test_arena_format_and_attach () =
  let pmem, heap = fresh_arena_heap () in
  check_ok heap;
  Alcotest.(check int) "four arenas" 4 (Heap.arena_count heap);
  Alcotest.(check int) "four free blocks (one per arena)" 4
    (Heap.block_count heap ~allocated:false);
  let reopened = Heap.open_existing pmem ~base:(off 64) in
  Alcotest.(check int) "attach rebuilds the same split" 4
    (Heap.arena_count reopened);
  check_ok reopened

let test_arena_binding_routes_allocations () =
  let _, heap = fresh_arena_heap () in
  for i = 0 to 3 do
    let view = Heap.with_arena heap i in
    let p = Heap.alloc view 64 in
    Alcotest.(check int)
      (Printf.sprintf "view %d allocates in arena %d" i i)
      i (Heap.arena_index heap p);
    Heap.free heap p
  done;
  check_ok heap;
  Alcotest.check_raises "negative arena index"
    (Invalid_argument "Heap.with_arena: negative arena index") (fun () ->
      ignore (Heap.with_arena heap (-1)))

let test_cross_arena_free_routes_home () =
  let _, heap = fresh_arena_heap ~arenas:2 () in
  let v0 = Heap.with_arena heap 0 and v1 = Heap.with_arena heap 1 in
  let p = Heap.alloc v0 64 in
  (* freeing through the *other* view must return the block to arena 0 *)
  Heap.free v1 p;
  check_ok heap;
  let p' = Heap.alloc v0 64 in
  Alcotest.(check int) "block went back to arena 0" 0
    (Heap.arena_index heap p');
  Heap.free heap p'

let test_arena_stealing_and_oom () =
  let _, heap = fresh_arena_heap ~arenas:2 ~size:16384 ~len:8192 () in
  let v0 = Heap.with_arena heap 0 in
  (* Exhaust arena 0: allocation from the bound view must steal from
     arena 1 rather than fail. *)
  let rec grab acc =
    match Heap.alloc v0 64 with
    | p -> grab (p :: acc)
    | exception Heap.Out_of_heap_memory _ -> acc
  in
  let blocks = grab [] in
  let stolen =
    List.filter (fun p -> Heap.arena_index heap p = 1) blocks
  in
  Alcotest.(check bool) "bound view stole from the other arena" true
    (List.length stolen > 0);
  Alcotest.(check bool) "home arena used too" true
    (List.exists (fun p -> Heap.arena_index heap p = 0) blocks);
  List.iter (Heap.free heap) blocks;
  check_ok heap

(* Recovery rebuilds each arena's volatile free index from that arena's own
   tiling: a hole left in a full arena goes back to that arena's bound view,
   and once it is taken the view steals from the other arena instead of
   finding a block of another arena in its own index. *)
let test_recovered_index_stays_home () =
  let pmem, heap = fresh_arena_heap ~arenas:2 ~size:16384 ~len:8192 () in
  let v0 = Heap.with_arena heap 0 in
  let rec fill acc =
    let p = Heap.alloc v0 64 in
    if Heap.arena_index heap p = 0 then fill (p :: acc)
    else (
      Heap.free heap p;
      acc)
  in
  let home = fill [] in
  (* the middle block sits between two live neighbours, so it stays a hole *)
  let hole = List.nth home (List.length home / 2) in
  Heap.free heap hole;
  Pmem.crash_and_restart pmem;
  let heap = Heap.recover pmem ~base:(off 64) in
  check_ok heap;
  let v0 = Heap.with_arena heap 0 and v1 = Heap.with_arena heap 1 in
  let p = Heap.alloc v0 64 in
  Alcotest.(check int) "arena 0's hole served to its view" (Offset.to_int hole)
    (Offset.to_int p);
  let q = Heap.alloc v0 64 in
  Alcotest.(check int) "arena 0 full again: the view steals" 1
    (Heap.arena_index heap q);
  let r = Heap.alloc v1 64 in
  Alcotest.(check int) "arena 1's view stays home" 1 (Heap.arena_index heap r);
  List.iter (Heap.free heap) [ p; q; r ];
  check_ok heap

(* Differential check: the same seeded alloc/write/free trace on a 1-arena
   and a 4-arena heap must end, after crash-free shutdown and recovery,
   with identical live payload contents (addresses differ — the split
   moves blocks — but every surviving payload's bytes must match). *)
let test_differential_one_vs_many_arenas () =
  let trace =
    let rng = Random.State.make [| 0xA5EA |] in
    List.init 120 (fun i ->
        let sz = 24 + Random.State.int rng 200 in
        (i, sz, Random.State.int rng 4))
  in
  let run ~arenas =
    let pmem, heap = fresh_arena_heap ~arenas ~size:(1 lsl 17) ~len:(1 lsl 16) () in
    let live = Hashtbl.create 64 in
    List.iter
      (fun (i, sz, route) ->
        let view = Heap.with_arena heap (route mod Heap.arena_count heap) in
        match Heap.alloc view sz with
        | p ->
            let fill = Char.chr (Char.code 'a' + (i mod 26)) in
            Pmem.write_bytes pmem ~off:p (Bytes.make sz fill);
            Pmem.flush pmem ~off:p ~len:sz;
            Hashtbl.replace live i (p, sz, fill);
            (* drop roughly a third of the allocations as we go *)
            if i mod 3 = 0 then begin
              Hashtbl.remove live i;
              Heap.free heap p
            end
        | exception Heap.Out_of_heap_memory _ -> ())
      trace;
    Pmem.crash_and_restart pmem;
    let recovered = Heap.recover pmem ~base:(off 64) in
    (match Heap.check recovered with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%d-arena heap broken: %s" arenas msg);
    Hashtbl.fold
      (fun i (p, sz, fill) acc ->
        let got = Bytes.to_string (Pmem.read_bytes pmem ~off:p ~len:sz) in
        Alcotest.(check string)
          (Printf.sprintf "%d-arena: payload %d intact" arenas i)
          (String.make sz fill) got;
        (i, sz, fill) :: acc)
      live []
    |> List.sort compare
  in
  let one = run ~arenas:1 and many = run ~arenas:4 in
  Alcotest.(check int) "same number of survivors" (List.length one)
    (List.length many);
  List.iter2
    (fun (i1, s1, f1) (i2, s2, f2) ->
      Alcotest.(check bool)
        (Printf.sprintf "survivor %d matches" i1)
        true
        (i1 = i2 && s1 = s2 && f1 = f2))
    one many

(* Crash sweep over the arena commit protocols: formatting a multi-arena
   heap (the superblock flush is the commit of the split), a cross-arena
   free, and arena stealing.  Crash before every persistence op in turn;
   after recovery the invariants must hold — or, if the crash predates the
   format's commit, attach must fail the magic test cleanly. *)
let test_arena_crash_point_sweep () =
  let workload pmem =
    let heap = Heap.format ~arenas:2 pmem ~base:(off 64) ~len:4096 in
    let v0 = Heap.with_arena heap 0 and v1 = Heap.with_arena heap 1 in
    let a = Heap.alloc v0 64 in
    let b = Heap.alloc v1 64 in
    Heap.free v1 a;
    (* cross-arena free *)
    let rec exhaust acc =
      match Heap.alloc v0 300 with
      | p -> exhaust (p :: acc)
      | exception Heap.Out_of_heap_memory _ -> acc
    in
    let stolen = exhaust [] in
    (* stealing path *)
    List.iter (Heap.free heap) stolen;
    Heap.free heap b
  in
  let total =
    let pmem = Pmem.create ~size:8192 () in
    workload pmem;
    Crash.ops (Pmem.crash_ctl pmem)
  in
  Alcotest.(check bool) "workload persists something" true (total > 20);
  for point = 1 to total do
    let pmem = Pmem.create ~size:8192 () in
    Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op point);
    (try workload pmem with Crash.Crash_now -> ());
    Pmem.crash_and_restart pmem;
    match Heap.recover pmem ~base:(off 64) with
    | recovered -> (
        (match Heap.check recovered with
        | Ok () -> ()
        | Error msg ->
            Alcotest.failf "crash at op %d/%d broke the heap: %s" point total
              msg);
        let x = Heap.alloc recovered 64 in
        Heap.free recovered x)
    | exception Invalid_argument _ ->
        (* pre-commit crash: the region must be re-formattable *)
        let heap = Heap.format ~arenas:2 pmem ~base:(off 64) ~len:4096 in
        check_ok heap
  done

(* Crash during multi-arena recovery itself: arenas are rebuilt one after
   another; a crash between arena rebuilds must leave a state a repeated
   recovery handles. *)
let test_arena_crash_during_recovery () =
  let build () =
    let pmem = Pmem.create ~size:(64 * 1024) () in
    let heap = Heap.format ~arenas:4 pmem ~base:(off 64) ~len:(32 * 1024) in
    Array.iteri
      (fun i view ->
        let blocks = List.init 5 (fun _ -> Heap.alloc view 64) in
        List.iteri
          (fun j b -> if (i + j) mod 2 = 0 then Heap.free heap b)
          blocks)
      (Array.init 4 (Heap.with_arena heap));
    pmem
  in
  let total =
    let pmem = build () in
    Crash.arm (Pmem.crash_ctl pmem) Crash.Never;
    let before = Crash.ops (Pmem.crash_ctl pmem) in
    ignore (recover_swept pmem);
    Crash.ops (Pmem.crash_ctl pmem) - before
  in
  for point = 1 to total do
    let pmem = build () in
    Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op point);
    (try ignore (recover_swept pmem) with Crash.Crash_now -> ());
    Pmem.crash_and_restart pmem;
    let recovered = recover_swept pmem in
    match Heap.check recovered with
    | Ok () -> ()
    | Error msg ->
        Alcotest.failf "re-recovery after crash at op %d failed: %s" point msg
  done

let test_concurrent_alloc_free () =
  let _, heap = fresh_heap ~size:(1 lsl 20) ~len:(1 lsl 19) () in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 200 do
              let a = Heap.alloc heap 48 in
              Heap.free heap a
            done))
  in
  List.iter Domain.join domains;
  check_ok heap;
  Alcotest.(check int) "nothing leaked" 0 (Heap.block_count heap ~allocated:true)

let test_concurrent_arena_bound () =
  let _, heap = fresh_arena_heap ~arenas:4 ~size:(1 lsl 20) ~len:(1 lsl 19) () in
  let domains =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            let view = Heap.with_arena heap i in
            for _ = 1 to 200 do
              let a = Heap.alloc view 48 in
              Heap.free view a
            done))
  in
  List.iter Domain.join domains;
  check_ok heap;
  Alcotest.(check int) "nothing leaked" 0
    (Heap.block_count heap ~allocated:true)

(* ------------------------------------------------------------------ *)
(* Media corruption: byte surgery on the persistent image, then the    *)
(* checksummed recovery paths must detect and degrade — rebuild,       *)
(* repair, quarantine — never trust rotten metadata.                   *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let recover_with_repairs pmem =
  let repairs = ref [] in
  let heap =
    Heap.recover ~report:(fun r -> repairs := r :: !repairs) pmem ~base:(off 64)
  in
  Heap.sweep heap;
  (heap, List.rev !repairs)

let test_clean_recover_reports_nothing () =
  let pmem, heap = fresh_heap () in
  let a = Heap.alloc heap 100 in
  ignore a;
  let heap', repairs = recover_with_repairs pmem in
  check_ok heap';
  Alcotest.(check int) "no repairs on a clean image" 0 (List.length repairs)

let test_check_detects_rotten_tag () =
  let pmem, heap = fresh_heap () in
  let a = Heap.alloc heap 100 in
  Heap.free heap a;
  (* One flipped bit in the first block's size tag: the 15-bit code in the
     tag's high bits no longer matches the payload. *)
  let first_block = Offset.add (Heap.arena_base heap 0) Heap.header_size in
  Pmem.inject_bitflip pmem ~off:first_block ~bit:3;
  match Heap.check heap with
  | Ok () -> Alcotest.fail "check accepted a rotten block tag"
  | Error msg ->
      Alcotest.(check bool) "names the corruption" true
        (contains msg "corrupt" || contains msg "checksum")

let test_recover_repairs_rotten_arena_header () =
  let pmem = Pmem.create ~size:(64 * 1024) () in
  let heap = Heap.format ~arenas:2 pmem ~base:(off 64) ~len:(32 * 1024) in
  ignore (Heap.alloc heap 100);
  (* Rot the length field of arena 1's header; the header is a pure
     function of the superblock geometry, so recovery rewrites it. *)
  Pmem.inject_bitflip pmem ~off:(Offset.add (Heap.arena_base heap 1) 8) ~bit:0;
  let heap', repairs = recover_with_repairs pmem in
  Alcotest.(check bool) "header repair reported" true
    (List.exists
       (function Heap.Repaired_arena_header { arena = 1 } -> true | _ -> false)
       repairs);
  Alcotest.(check (list int)) "nothing quarantined" []
    (Heap.quarantined_arenas heap');
  check_ok heap';
  ignore (Heap.alloc heap' 100)

let test_recover_quarantines_unwalkable_arena () =
  let pmem = Pmem.create ~size:(64 * 1024) () in
  let heap = Heap.format ~arenas:2 pmem ~base:(off 64) ~len:(32 * 1024) in
  (* Rot arena 1's first block tag: the tiling cannot be walked, and no
     redundant copy exists to rebuild it from. *)
  let victim = Offset.add (Heap.arena_base heap 1) Heap.header_size in
  Pmem.inject_bitflip pmem ~off:victim ~bit:5;
  let heap', repairs = recover_with_repairs pmem in
  Alcotest.(check (list int)) "arena 1 quarantined" [ 1 ]
    (Heap.quarantined_arenas heap');
  Alcotest.(check bool) "quarantine reported" true
    (List.exists
       (function
         | Heap.Quarantined_arena { arena = 1; _ } -> true | _ -> false)
       repairs);
  (* Out of service is a reported state, not an invariant violation. *)
  check_ok heap';
  (* Degraded allocation: the healthy arena still serves. *)
  let a = Heap.alloc heap' 100 in
  Alcotest.(check int) "allocation routed around the quarantine" 0
    (Heap.arena_index heap' a)

let test_free_over_rotten_tag_quarantines () =
  let pmem = Pmem.create ~size:(64 * 1024) () in
  let heap = Heap.format ~arenas:2 pmem ~base:(off 64) ~len:(32 * 1024) in
  let a = Heap.alloc (Heap.with_arena heap 1) 100 in
  (* Rot the tag under [a]: the tiling has no second copy to rebuild it
     from, so the free takes arena 1 out of service and is dropped. *)
  Pmem.inject_bitflip pmem ~off:(Offset.add a (-Heap.block_header_size)) ~bit:5;
  Heap.free heap a;
  Alcotest.(check (list int)) "arena 1 quarantined" [ 1 ]
    (Heap.quarantined_arenas heap);
  check_ok heap;
  let b = Heap.alloc (Heap.with_arena heap 1) 100 in
  Alcotest.(check int) "allocation routed around the quarantine" 0
    (Heap.arena_index heap b)

let reads_during f =
  let reads () = (Obs.Counters.totals Obs.Probe.counters).reads in
  let before = reads () in
  f ();
  reads () - before

(* A recovered heap allocates as fast as a fresh one: each round leaves one
   hole that recovery cannot coalesce (it sits between two live blocks) and
   that later rounds cannot reuse (each round's blocks are larger than
   every earlier hole), and the device reads of one allocation larger than every hole
   must not grow with the number of holes. *)
let test_alloc_reads_flat_in_holes () =
  let reads_after rounds =
    let pmem, heap = fresh_heap () in
    let heap = ref heap in
    for r = 1 to rounds do
      let a = Heap.alloc !heap (32 * r) in
      ignore (Heap.alloc !heap ((32 * r) + 16));
      Heap.free !heap a;
      heap := recover_swept pmem
    done;
    Alcotest.(check int) "one hole per round, plus the big block"
      (rounds + 1)
      (Heap.block_count !heap ~allocated:false);
    reads_during (fun () -> ignore (Heap.alloc !heap 1024))
  in
  Alcotest.(check int) "device reads per alloc: 16 holes vs 1" (reads_after 1)
    (reads_after 16)

(* Attaching reads only the headers: it neither writes nor walks the
   tiling, so a rotten tag is found by the first allocation, not by
   [open_existing]. *)
let test_open_existing_is_passive () =
  let pmem, heap = fresh_heap () in
  ignore (Heap.alloc heap 100);
  let first_block = Offset.add (Heap.arena_base heap 0) Heap.header_size in
  Pmem.inject_bitflip pmem ~off:first_block ~bit:3;
  let writes () = (Obs.Counters.totals Obs.Probe.counters).writes in
  let before = writes () in
  let reopened = Heap.open_existing pmem ~base:(off 64) in
  Alcotest.(check int) "open_existing writes nothing" before (writes ());
  Alcotest.(check bool) "check reports the rotten tag" true
    (Result.is_error (Heap.check reopened));
  match Heap.alloc reopened 64 with
  | _ -> Alcotest.fail "allocated from a rotten tiling"
  | exception Heap.Out_of_heap_memory _ ->
      Alcotest.(check (list int)) "first allocation quarantines" [ 0 ]
        (Heap.quarantined_arenas reopened)

(* The recovery sweep, crashed at each of its persistence points over a
   2-arena heap whose free, dead (allocated, no root) and live blocks
   interleave: runs headed by a free block and runs headed by a dead block,
   each arena's big free remainder included.  A repeated recovery must
   leave exactly the live blocks allocated, and a third writes nothing. *)
let test_sweep_crash_points () =
  let build () =
    let pmem = Pmem.create ~size:(64 * 1024) () in
    let heap = Heap.format ~arenas:2 pmem ~base:(off 64) ~len:(32 * 1024) in
    let live = ref [] and dead = ref [] in
    for i = 0 to 29 do
      let p = Heap.alloc (Heap.with_arena heap (i mod 2)) (16 + (8 * i)) in
      match i / 2 mod 5 with
      | 0 | 3 -> Heap.free heap p
      | 1 | 4 -> dead := p :: !dead
      | _ -> live := p :: !live
    done;
    Pmem.crash_and_restart pmem;
    (pmem, !live, !dead)
  in
  let recover pmem live =
    let heap = Heap.recover pmem ~base:(off 64) in
    ignore (Heap.retain heap ~live);
    heap
  in
  let allocated heap =
    let acc = ref [] in
    Heap.iter_blocks heap (fun ~off ~size:_ ~allocated ->
        if allocated then
          acc := (Offset.to_int off + Heap.block_header_size) :: !acc);
    List.sort compare !acc
  in
  let writes () = (Obs.Counters.totals Obs.Probe.counters).writes in
  let total =
    let pmem, live, _ = build () in
    Crash.arm (Pmem.crash_ctl pmem) Crash.Never;
    ignore (recover pmem live);
    Crash.ops (Pmem.crash_ctl pmem)
  in
  Alcotest.(check bool) "the sweep writes" true (total > 4);
  for point = 1 to total do
    let pmem, live, dead = build () in
    Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op point);
    (match recover pmem live with
    | _ -> Alcotest.failf "the crash at %d/%d missed" point total
    | exception Crash.Crash_now -> ());
    Pmem.crash_and_restart pmem;
    let heap = recover pmem live in
    (match Heap.check heap with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "crash at %d/%d: %s" point total msg);
    let now = allocated heap in
    List.iter
      (fun p ->
        if List.mem (Offset.to_int p) now then
          Alcotest.failf "crash at %d/%d: dead block %d still allocated" point
            total (Offset.to_int p))
      dead;
    Alcotest.(check (list int))
      (Printf.sprintf "crash at %d/%d: exactly the live blocks allocated" point
         total)
      (List.sort compare (List.map Offset.to_int live))
      now;
    let before = writes () in
    ignore (recover pmem live);
    Alcotest.(check int)
      (Printf.sprintf "crash at %d/%d: a third recovery writes nothing" point
         total)
      before (writes ())
  done

(* ------------------------------------------------------------------ *)
(* Individual kills: [Thread_killed] cuts one heap operation short and  *)
(* the process goes on with the same heap handle, no recovery between.  *)

let allocated_at heap payload =
  let block = Offset.to_int payload - Heap.block_header_size in
  let found = ref false in
  Heap.iter_blocks heap (fun ~off ~size:_ ~allocated ->
      if allocated && Offset.to_int off = block then found := true);
  !found

let rec fill view size acc =
  match Heap.alloc view size with
  | p -> fill view size (p :: acc)
  | exception Heap.Out_of_heap_memory _ -> acc

(* Each scenario builds a heap, returns the operation to cut short, and
   how to finish that operation afterwards as its retrying caller would.
   The split and the steal carve from an arena's only free block, so a
   block lost to the index refuses the next allocation. *)
let kill_scenarios =
  [
    ( "exact fit",
      fun () ->
        let pmem, heap = fresh_heap ~size:8192 ~len:2048 () in
        let blocks = fill heap 64 [] in
        Heap.free heap (List.nth blocks 1);
        Heap.free heap (List.nth blocks 3);
        (pmem, heap, heap, (fun () -> ignore (Heap.alloc heap 64)), ignore) );
    ( "split",
      fun () ->
        let pmem, heap = fresh_heap ~size:8192 ~len:2048 () in
        (pmem, heap, heap, (fun () -> ignore (Heap.alloc heap 64)), ignore) );
    ( "steal",
      fun () ->
        let pmem, heap = fresh_arena_heap ~arenas:2 ~size:8192 ~len:4096 () in
        let v0 = Heap.with_arena heap 0 in
        (* fill arena 0 up to its first steal, hand that block back, and
           sweep arena 1 into one free block again *)
        let rec fill_home () =
          let p = Heap.alloc v0 64 in
          if Heap.arena_index heap p = 0 then fill_home () else Heap.free heap p
        in
        fill_home ();
        Heap.sweep heap;
        (pmem, heap, v0, (fun () -> ignore (Heap.alloc v0 64)), ignore) );
    ( "free",
      fun () ->
        let pmem, heap = fresh_heap ~size:8192 ~len:2048 () in
        let p = List.hd (fill heap 64 []) in
        let finish () = if allocated_at heap p then Heap.free heap p in
        (pmem, heap, heap, (fun () -> Heap.free heap p), finish) );
  ]
(* Cut each scenario's operation short at every persistence point in
   turn.  Finishing the operation and then allocating the same size must
   succeed, and the heap invariants must hold, with no recovery between:
   an individual kill leaves the rest of the process running. *)
let test_kill_sweep () =
  List.iter
    (fun (name, build) ->
      let total =
        let pmem, _, _, op, _ = build () in
        let ctl = Pmem.crash_ctl pmem in
        Crash.arm ctl Crash.Never;
        op ();
        Crash.ops ctl
      in
      Alcotest.(check bool) (name ^ ": persists something") true (total > 0);
      for point = 1 to total do
        let pmem, heap, view, op, finish = build () in
        Crash.arm_kill (Pmem.crash_ctl pmem) (Crash.At_op point);
        (match op () with
        | () -> Alcotest.failf "%s: the kill at %d/%d missed" name point total
        | exception Crash.Thread_killed -> ());
        finish ();
        (match Heap.alloc view 64 with
        | _ -> ()
        | exception Heap.Out_of_heap_memory _ ->
            Alcotest.failf "%s: after a kill at %d/%d the same alloc fails"
              name point total);
        match Heap.check heap with
        | Ok () -> ()
        | Error msg ->
            Alcotest.failf "%s: kill at %d/%d broke the heap: %s" name point
              total msg
      done)
    kill_scenarios

let () =
  Alcotest.run "nvheap"
    [
      ( "basics",
        [
          Alcotest.test_case "format" `Quick test_format;
          Alcotest.test_case "alloc/free roundtrip" `Quick
            test_alloc_free_roundtrip;
          Alcotest.test_case "reuse after free" `Quick test_reuse_after_free;
          Alcotest.test_case "double free detected" `Quick
            test_double_free_detected;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "exhaustion" `Quick test_exhaustion_and_refill;
          Alcotest.test_case "open_existing magic" `Quick
            test_open_existing_validates_magic;
          Alcotest.test_case "open_existing is passive" `Quick
            test_open_existing_is_passive;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recover coalesces" `Quick test_recover_coalesces;
          Alcotest.test_case "recover preserves allocated" `Quick
            test_recover_preserves_allocated;
          Alcotest.test_case "retain reclaims leaks" `Quick
            test_retain_reclaims_leaks;
          Alcotest.test_case "crash-point sweep" `Slow test_crash_point_sweep;
          Alcotest.test_case "crash during recovery" `Slow
            test_crash_during_recovery;
          Alcotest.test_case "alloc reads flat in recovered holes" `Quick
            test_alloc_reads_flat_in_holes;
          Alcotest.test_case "crash at every point of the sweep" `Quick
            test_sweep_crash_points;
        ] );
      ( "arenas",
        [
          Alcotest.test_case "format and attach" `Quick
            test_arena_format_and_attach;
          Alcotest.test_case "binding routes allocations" `Quick
            test_arena_binding_routes_allocations;
          Alcotest.test_case "cross-arena free routes home" `Quick
            test_cross_arena_free_routes_home;
          Alcotest.test_case "stealing and OOM" `Quick
            test_arena_stealing_and_oom;
          Alcotest.test_case "recovered free index stays home" `Quick
            test_recovered_index_stays_home;
          Alcotest.test_case "differential 1 vs 4 arenas" `Quick
            test_differential_one_vs_many_arenas;
          Alcotest.test_case "arena crash-point sweep" `Slow
            test_arena_crash_point_sweep;
          Alcotest.test_case "arena crash during recovery" `Slow
            test_arena_crash_during_recovery;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "parallel alloc/free" `Quick
            test_concurrent_alloc_free;
          Alcotest.test_case "parallel arena-bound alloc/free" `Quick
            test_concurrent_arena_bound;
        ] );
      ( "individual kills",
        [ Alcotest.test_case "kill at every point" `Quick test_kill_sweep ] );
      ( "media corruption",
        [
          Alcotest.test_case "clean recover reports nothing" `Quick
            test_clean_recover_reports_nothing;
          Alcotest.test_case "check detects rotten tag" `Quick
            test_check_detects_rotten_tag;
          Alcotest.test_case "recover repairs rotten arena header" `Quick
            test_recover_repairs_rotten_arena_header;
          Alcotest.test_case "recover quarantines unwalkable arena" `Quick
            test_recover_quarantines_unwalkable_arena;
          Alcotest.test_case "free over rotten tag quarantines" `Quick
            test_free_over_rotten_tag_quarantines;
        ] );
    ]
