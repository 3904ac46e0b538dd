(* Benchmark harness.

   The paper's evaluation (Section 5.2) is qualitative, so the experiment
   rows it reports are regenerated as verdict tables (E1-E3 below), while
   every mechanism whose cost the paper discusses gets a quantitative
   bechamel micro-benchmark (rows B1-B7 of DESIGN.md):

     B1 push_pop/*      stack protocol cost per implementation and frame size
     B2 flush_policy/*  volatile-cache writes+flush vs cache-less auto-flush
     B3 recovery/*      build+crash+attach+recover cycle vs stack depth
     B4 rcas/*          recoverable CAS vs raw hardware CAS; correct vs buggy
     B5 verify/*        serializability checker scaling (polynomial claim)
     B6 unbounded/*     deep recursion: resizable-array vs linked-list stack
     B7 heap/*          allocator throughput
     B8 rqueue/*        recoverable queue ops; buffered register (Section 2.4)

   and one timed case outside bechamel, whose run mutates its input:

     R1 heap/recover    the heap's share of a restart on a 200k-block heap

   Run with: dune exec bench/main.exe *)

open Bechamel
open Toolkit
module Pmem = Nvram.Pmem
module Heap = Nvheap.Heap
module Rcas = Recoverable.Rcas

let off = Nvram.Offset.of_int

(* ------------------------------------------------------------------ *)
(* B1: push/pop cost across implementations and frame sizes            *)

type any_stack =
  | Any : (module Pstack.Stack_intf.S with type t = 's) * 's -> any_stack

let make_stack = function
  | `Bounded ->
      let pmem = Pmem.create ~size:(1 lsl 22) () in
      Any
        ( (module Pstack.Bounded),
          Pstack.Bounded.create pmem ~base:(off 0) ~capacity:(1 lsl 21) )
  | `Resizable ->
      let pmem = Pmem.create ~size:(1 lsl 22) () in
      let heap = Heap.format pmem ~base:(off 64) ~len:(1 lsl 21) in
      Any
        ( (module Pstack.Resizable),
          Pstack.Resizable.create pmem ~heap ~anchor:(off 0) () )
  | `Linked ->
      let pmem = Pmem.create ~size:(1 lsl 22) () in
      let heap = Heap.format pmem ~base:(off 64) ~len:(1 lsl 21) in
      Any
        ( (module Pstack.Linked),
          Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:4096 ()
        )

let push_pop_test kind kind_name args_len =
  Test.make
    ~name:(Printf.sprintf "push_pop/%s/args=%dB" kind_name args_len)
    (let (Any ((module S), s)) = make_stack kind in
     let args = Bytes.make args_len 'a' in
     Staged.stage (fun () ->
         S.push s ~func_id:2 ~args;
         S.pop s))

let b1_tests =
  List.concat_map
    (fun (kind, name) ->
      List.map (fun len -> push_pop_test kind name len) [ 8; 256; 2048 ])
    [ (`Bounded, "bounded"); (`Resizable, "resizable"); (`Linked, "linked") ]

(* ------------------------------------------------------------------ *)
(* B2: cached+flush vs auto-flush writes                               *)

let flush_policy_test ~auto_flush name =
  Test.make ~name:(Printf.sprintf "flush_policy/%s" name)
    (let pmem = Pmem.create ~auto_flush ~size:(1 lsl 16) () in
     let data = Bytes.make 64 'x' in
     let cursor = ref 0 in
     Staged.stage (fun () ->
         let at = off (!cursor mod 1024 * 64) in
         incr cursor;
         Pmem.write_bytes pmem ~off:at data;
         if not auto_flush then Pmem.flush pmem ~off:at ~len:64))

let b2_tests =
  [
    flush_policy_test ~auto_flush:false "cached_write_then_flush";
    flush_policy_test ~auto_flush:true "auto_flush_write";
  ]

(* ------------------------------------------------------------------ *)
(* B3: recovery cycle vs stack depth                                   *)

let recovery_test depth =
  Test.make ~name:(Printf.sprintf "recovery/depth=%d" depth)
    ((* one device for all iterations; each iteration re-creates the stack
        in place, so the measured cycle is push+crash+attach+drain *)
     let pmem = Pmem.create ~size:(1 lsl 22) () in
     let args = Bytes.make 16 'r' in
     Staged.stage (fun () ->
         let s =
           Pstack.Bounded.create pmem ~base:(off 0) ~capacity:(1 lsl 21)
         in
         for i = 1 to depth do
           Pstack.Bounded.push s ~func_id:(i + 1) ~args
         done;
         Pmem.crash_and_restart pmem;
         (* recovery: rebuild the index by scanning, then drain *)
         let s =
           Pstack.Bounded.attach pmem ~base:(off 0) ~capacity:(1 lsl 21)
         in
         for _ = 1 to Pstack.Bounded.depth s do
           Pstack.Bounded.pop s
         done))

let b3_tests = List.map recovery_test [ 10; 100; 1000 ]

(* ------------------------------------------------------------------ *)
(* B4: recoverable CAS vs raw CAS                                      *)

let raw_cas_test =
  Test.make ~name:"rcas/raw_hardware_cas"
    (let pmem = Pmem.create ~auto_flush:true ~size:4096 () in
     Pmem.write_int64 pmem (off 0) 0L;
     let v = ref 0L in
     Staged.stage (fun () ->
         let next = Int64.add !v 1L in
         ignore (Pmem.cas_int64 pmem (off 0) ~expected:!v ~desired:next);
         v := next))

let rcas_test variant name =
  Test.make ~name:(Printf.sprintf "rcas/%s" name)
    (let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 16) () in
     let t = Rcas.create pmem ~base:(off 64) ~nprocs:4 ~init:0 ~variant in
     let v = ref 0 in
     Staged.stage (fun () ->
         (* keep the value inside the packing range *)
         let cur = !v and next = (!v + 1) land 0xFFFF in
         ignore (Rcas.cas t ~pid:0 ~expected:cur ~desired:next);
         v := next))

let rcas_recover_test =
  Test.make ~name:"rcas/recover_evidence_scan"
    (let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 16) () in
     let t =
       Rcas.create pmem ~base:(off 64) ~nprocs:8 ~init:0 ~variant:Rcas.Correct
     in
     ignore (Rcas.cas t ~pid:0 ~expected:0 ~desired:1);
     let seq = Rcas.sequence t ~pid:0 in
     ignore (Rcas.cas t ~pid:1 ~expected:1 ~desired:2);
     Staged.stage (fun () -> ignore (Rcas.evidence t ~pid:0 ~seq)))

let b4_tests =
  [
    raw_cas_test;
    rcas_test Rcas.Correct "recoverable_correct";
    rcas_test Rcas.Buggy "recoverable_buggy";
    rcas_recover_test;
  ]

(* ------------------------------------------------------------------ *)
(* B5: serializability checker scaling                                 *)

let verify_test n =
  Test.make ~name:(Printf.sprintf "verify/ops=%d" n)
    (let history =
       Verify.Generator.sequential_history ~seed:5 ~n
         ~range:Verify.Generator.Narrow
     in
     Staged.stage (fun () -> ignore (Verify.Serializability.check history)))

let b5_tests = List.map verify_test [ 100; 1000; 10_000 ]

(* ------------------------------------------------------------------ *)
(* B6: deep recursion on unbounded stacks (Appendix A trade-off)       *)

let unbounded_test kind name depth =
  Test.make ~name:(Printf.sprintf "unbounded/%s/depth=%d" name depth)
    ((* steady state: one stack reused, so pops return every block and the
        heap does not drift *)
     let (Any ((module S), s)) = make_stack kind in
     let args = Bytes.make 24 'u' in
     Staged.stage (fun () ->
         for i = 1 to depth do
           S.push s ~func_id:(i + 1) ~args
         done;
         for _ = 1 to depth do
           S.pop s
         done))

let b6_tests =
  List.concat_map
    (fun depth ->
      [
        unbounded_test `Resizable "resizable" depth;
        unbounded_test `Linked "linked" depth;
      ])
    [ 100; 1000 ]

(* ------------------------------------------------------------------ *)
(* B7: heap allocator                                                  *)

let heap_test =
  Test.make ~name:"heap/alloc_free_64B"
    (let pmem = Pmem.create ~size:(1 lsl 20) () in
     let heap = Heap.format pmem ~base:(off 64) ~len:(1 lsl 19) in
     Staged.stage (fun () ->
         let a = Heap.alloc heap 64 in
         Heap.free heap a))

let heap_mixed_test =
  Test.make ~name:"heap/alloc_free_mixed"
    ((* mixed small sizes over a large heap; coalescing is offline (see
        DESIGN.md), so sizes are kept below the split threshold to reach a
        steady state instead of fragmenting without bound *)
     let pmem = Pmem.create ~size:(1 lsl 23) () in
     let heap = Heap.format pmem ~base:(off 64) ~len:(1 lsl 22) in
     let sizes = [| 24; 120; 64; 96; 48; 160; 16; 112 |] in
     let i = ref 0 in
     Staged.stage (fun () ->
         let a = Heap.alloc heap sizes.(!i mod 8) in
         let b = Heap.alloc heap sizes.((!i + 3) mod 8) in
         incr i;
         Heap.free heap a;
         Heap.free heap b))

let b7_tests = [ heap_test; heap_mixed_test ]

(* ------------------------------------------------------------------ *)
(* B8: recoverable queue                                               *)

let rqueue_test =
  Test.make ~name:"rqueue/enqueue_dequeue"
    ((* dequeued nodes stay in the chain by design, so the bench needs a
        heap large enough for every iteration bechamel will run *)
     let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 26) () in
     let heap = Heap.format pmem ~base:(off 4096) ~len:(1 lsl 25) in
     let q = Recoverable.Rqueue.create pmem ~heap ~base:(off 64) ~nprocs:1 in
     Staged.stage (fun () ->
         Recoverable.Rqueue.enqueue q 42;
         ignore (Recoverable.Rqueue.dequeue q ~pid:0)))

let bregister_test =
  Test.make ~name:"rqueue/buffered_register_write"
    (let pmem = Pmem.create ~size:4096 () in
     let r = Recoverable.Bregister.create pmem ~base:(off 64) ~init:0 in
     let i = ref 0 in
     Staged.stage (fun () ->
         incr i;
         Recoverable.Bregister.write r !i;
         if !i land 63 = 0 then Recoverable.Bregister.sync r))

let rmap_test =
  Test.make ~name:"rqueue/rmap_find"
    ((* mutations accumulate version nodes by design, which would make a
        put/remove loop drift; measure lookups on a prebuilt map instead *)
     let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 22) () in
     let heap = Heap.format pmem ~base:(off 4096) ~len:(1 lsl 21) in
     let m =
       Recoverable.Rmap.create pmem ~heap ~base:(off 64) ~buckets:64 ~nprocs:1
     in
     for key = 0 to 1023 do
       Recoverable.Rmap.put m ~key ~value:(key * 3)
     done;
     let k = ref 0 in
     Staged.stage (fun () ->
         incr k;
         ignore (Recoverable.Rmap.find m ~key:(!k land 1023))))

let b8_tests = [ rqueue_test; bregister_test; rmap_test ]

(* ------------------------------------------------------------------ *)
(* S: worker scaling on the striped device                             *)

(* The rows below measure what the striped Pmem lock actually buys: [n]
   worker domains hammer one shared device at disjoint cache-line ranges,
   so with per-line striping they should scale with cores, while the old
   single-mutex device serialised them. *)

type scale_row = {
  bench : string;
  workers : int;
  iters_per_worker : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_sec : float;
  (* Latency shape and flush cost, from a separate smaller pass run with
     observability enabled; the throughput numbers above always come from
     an obs-off pass, so the <5% disabled-overhead budget is never mixed
     into them. *)
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  flush_per_op : float;
}

(* Start [n] domains, release them through a barrier so the clock starts
   only once everyone is ready, and time until the last one joins. *)
let time_workers n body =
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let doms =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            body i))
  in
  while Atomic.get ready < n do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  List.iter Domain.join doms;
  Unix.gettimeofday () -. t0

(* Run a fresh copy of a scaling workload with observability on: per-op
   latencies go into a private histogram, flush counts into the global probe
   counters.  Kept separate from the timed pass so instrumentation cost
   never pollutes the throughput column. *)
let instrument_pass ~workers ~iters setup =
  let probe_iters = min iters 2_000 in
  let hist = Obs.Histogram.create () in
  Obs.Counters.reset Obs.Probe.counters;
  Obs.Config.with_enabled true (fun () ->
      let body = setup () in
      ignore
        (time_workers workers (fun i ->
             for _ = 1 to probe_iters do
               let t0 = Obs.Config.now_ns () in
               body i;
               Obs.Histogram.record hist (Obs.Config.now_ns () - t0)
             done)));
  let s = Obs.Histogram.summary hist in
  let totals = Obs.Counters.totals Obs.Probe.counters in
  let ops = workers * probe_iters in
  (* Persistence cost per op: eager flush calls plus coalesced drain
     events (an elided flush is bookkeeping, not a write-back — the drain
     is where the cost lands).  On an eager device [drains] is 0 and this
     is the old flushes/ops metric, bit for bit. *)
  ( s.Obs.Histogram.p50,
    s.Obs.Histogram.p95,
    s.Obs.Histogram.p99,
    float_of_int (totals.Obs.Counters.flushes + totals.Obs.Counters.drains)
    /. float_of_int ops )

(* Each row's throughput is the best of [timing_repeats] fresh runs: the
   host's frequency scaling and scheduling noise swamp single-shot numbers,
   and the minimum is the standard robust estimator for "how fast can this
   go" (the slowdowns are all noise, never the workload).  Five repeats,
   not three: at 4-8 domains on few-core hosts the distribution is
   heavy-tailed enough that min-of-3 still flakes the regression gate. *)
let timing_repeats = 5

let best_elapsed ~workers ~iters setup =
  let best = ref infinity in
  for _ = 1 to timing_repeats do
    let body = setup () in
    let elapsed =
      time_workers workers (fun i ->
          for _ = 1 to iters do
            body i
          done)
    in
    if elapsed < !best then best := elapsed
  done;
  !best

let scale_bench ~name ~workers ~iters setup =
  let elapsed = best_elapsed ~workers ~iters setup in
  let total_ops = workers * iters in
  let p50_ns, p95_ns, p99_ns, flush_per_op =
    instrument_pass ~workers ~iters setup
  in
  {
    bench = name;
    workers;
    iters_per_worker = iters;
    total_ops;
    elapsed_s = elapsed;
    ops_per_sec = float_of_int total_ops /. elapsed;
    p50_ns;
    p95_ns;
    p99_ns;
    flush_per_op;
  }

(* Each scaling workload also runs in a [_coalesced] variant: the same
   loop body on a [Flush_mode.Coalesced] device, with one
   [Pmem.persist_barrier] per iteration standing in for the runtime's
   per-call completion barrier.  The eager variants call nothing extra —
   their closures never even test the mode — so their rows stay directly
   comparable with the pre-coalescing baseline. *)

let push_pop_setup ?(flush_mode = Pmem.Eager) ~workers () =
  let stride = 8192 in
  let pmem = Pmem.create ~flush_mode ~size:(workers * stride) () in
  let stacks =
    Array.init workers (fun i ->
        Pstack.Bounded.create pmem ~base:(off (i * stride)) ~capacity:stride)
  in
  let args = Bytes.make 16 's' in
  match flush_mode with
  | Pmem.Eager ->
      fun i ->
        let s = stacks.(i) in
        Pstack.Bounded.push s ~func_id:2 ~args;
        Pstack.Bounded.pop s
  | Pmem.Coalesced ->
      fun i ->
        let s = stacks.(i) in
        Pstack.Bounded.push s ~func_id:2 ~args;
        Pstack.Bounded.pop s;
        Pmem.persist_barrier pmem

(* one shared device; each worker owns a bounded stack in its own
   line-aligned region, so no two workers ever touch the same line *)
let scale_push_pop ~workers ~iters =
  scale_bench ~name:"push_pop" ~workers ~iters (push_pop_setup ~workers)

let scale_push_pop_coalesced ~workers ~iters =
  scale_bench ~name:"push_pop_coalesced" ~workers ~iters
    (push_pop_setup ~flush_mode:Pmem.Coalesced ~workers)

let rcas_setup ?(flush_mode = Pmem.Eager) ~workers () =
  let region = Rcas.region_size ~nprocs:1 in
  let stride = (region + 63) / 64 * 64 in
  let pmem =
    Pmem.create ~auto_flush:true ~flush_mode ~size:(workers * stride) ()
  in
  let regs =
    Array.init workers (fun i ->
        Rcas.create pmem ~base:(off (i * stride)) ~nprocs:1 ~init:0
          ~variant:Rcas.Correct)
  in
  let values = Array.make workers 0 in
  match flush_mode with
  | Pmem.Eager ->
      fun i ->
        let t = regs.(i) in
        let cur = values.(i) and next = (values.(i) + 1) land 0xFFFF in
        ignore (Rcas.cas t ~pid:0 ~expected:cur ~desired:next);
        values.(i) <- next
  | Pmem.Coalesced ->
      fun i ->
        let t = regs.(i) in
        let cur = values.(i) and next = (values.(i) + 1) land 0xFFFF in
        ignore (Rcas.cas t ~pid:0 ~expected:cur ~desired:next);
        values.(i) <- next;
        Pmem.persist_barrier pmem

(* per-worker single-process recoverable CAS registers at disjoint
   line-aligned offsets of one auto-flush device.  The coalesced variant
   shows the limit case: auto-flush leaves nothing dirty, so every flush
   call elides and flush/op drops to zero. *)
let scale_rcas ~workers ~iters =
  scale_bench ~name:"rcas" ~workers ~iters (rcas_setup ~workers)

let scale_rcas_coalesced ~workers ~iters =
  scale_bench ~name:"rcas_coalesced" ~workers ~iters
    (rcas_setup ~flush_mode:Pmem.Coalesced ~workers)

let heap_alloc_setup ?(flush_mode = Pmem.Eager) ~workers () =
  let pmem = Pmem.create ~flush_mode ~size:(1 lsl 22) () in
  let heap = Heap.format ~arenas:workers pmem ~base:(off 64) ~len:(1 lsl 21) in
  let views = Array.init workers (fun i -> Heap.with_arena heap i) in
  match flush_mode with
  | Pmem.Eager ->
      fun i ->
        let h = views.(i) in
        let a = Heap.alloc h 64 in
        Heap.free h a
  | Pmem.Coalesced ->
      fun i ->
        let h = views.(i) in
        let a = Heap.alloc h 64 in
        Heap.free h a;
        Pmem.persist_barrier pmem

(* one shared heap split into one arena per worker (the runtime's layout);
   each worker allocates through its own arena view, so this row measures
   exactly the contention the sharding removed *)
let scale_heap_alloc ~workers ~iters =
  scale_bench ~name:"heap_alloc" ~workers ~iters (heap_alloc_setup ~workers)

let scale_heap_alloc_coalesced ~workers ~iters =
  scale_bench ~name:"heap_alloc_coalesced" ~workers ~iters
    (heap_alloc_setup ~flush_mode:Pmem.Coalesced ~workers)

let scaling_rows ~iters =
  List.concat_map
    (fun workers ->
      [
        scale_push_pop ~workers ~iters;
        scale_push_pop_coalesced ~workers ~iters;
        scale_rcas ~workers ~iters;
        scale_rcas_coalesced ~workers ~iters;
        scale_heap_alloc ~workers ~iters;
        scale_heap_alloc_coalesced ~workers ~iters;
      ])
    [ 1; 2; 4; 8 ]

let print_scaling rows =
  print_endline "";
  print_endline "=== worker scaling on one striped device (S) ===";
  Printf.printf "%-10s %8s %10s %12s %10s %14s %10s %10s %10s %9s\n" "bench"
    "workers" "iters/w" "total_ops" "elapsed_s" "ops/s" "p50_ns" "p95_ns"
    "p99_ns" "flush/op";
  List.iter
    (fun r ->
      Printf.printf
        "%-10s %8d %10d %12d %10.3f %14.0f %10.0f %10.0f %10.0f %9.2f\n%!"
        r.bench r.workers r.iters_per_worker r.total_ops r.elapsed_s
        r.ops_per_sec r.p50_ns r.p95_ns r.p99_ns r.flush_per_op)
    rows

let write_json ~path rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"device\": \"pmem\",\n";
  out "  \"stripes\": %d,\n" Pmem.default_stripes;
  out "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      out
        "    { \"bench\": %S, \"workers\": %d, \"iters_per_worker\": %d, \
         \"total_ops\": %d, \"elapsed_s\": %.6f, \"ops_per_sec\": %.1f, \
         \"p50_ns\": %.1f, \"p95_ns\": %.1f, \"p99_ns\": %.1f, \
         \"flush_per_op\": %.4f }%s\n"
        r.bench r.workers r.iters_per_worker r.total_ops r.elapsed_s
        r.ops_per_sec r.p50_ns r.p95_ns r.p99_ns r.flush_per_op
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)

let run_benchmarks tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) analyzed []
      in
      List.iter
        (fun (name, ols_result) ->
          let nanos =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> Printf.sprintf "%12.1f ns/op" est
            | Some [] | None -> "          n/a"
          in
          Printf.printf "%-40s %s\n%!" name nanos)
        (List.sort compare rows))
    tests

(* ------------------------------------------------------------------ *)
(* R1: the heap's share of a restart                                   *)

(* Attaching a crashed heap ([Heap.recover]) plus the reclaiming sweep
   that ends a system recovery ([Heap.retain]), on a 64 MiB heap of 2
   arenas holding 200k blocks, every fourth one dead (allocated, no root).
   A recovery rewrites its image, so every round starts from a fresh copy
   of one crashed image, made outside the timed span; the row reports the
   median round and one round's device reads and writes. *)
let heap_recover () =
  let size = 64 lsl 20 and blocks = 200_000 and rounds = 7 in
  let image, live =
    let pmem = Pmem.create ~size () in
    let heap = Heap.format ~arenas:2 pmem ~base:(off 64) ~len:(size - 64) in
    let live = ref [] in
    for i = 0 to blocks - 1 do
      let p = Heap.alloc (Heap.with_arena heap (i mod 2)) 64 in
      if i mod 4 <> 3 then live := p :: !live
    done;
    (Nvram.Backend.read (Pmem.backend pmem) ~off:0 ~len:size, !live)
  in
  let counts () =
    let c = Obs.Counters.totals Obs.Probe.counters in
    (c.Obs.Counters.reads, c.Obs.Counters.writes)
  in
  let round () =
    let backend = Nvram.Backend.memory ~size in
    Nvram.Backend.persist backend ~off:0 ~src:image ~src_off:0 ~len:size;
    let pmem = Pmem.create ~backend ~size () in
    Gc.full_major ();
    let reads0, writes0 = counts () in
    let t0 = Unix.gettimeofday () in
    let heap = Heap.recover pmem ~base:(off 64) in
    let t1 = Unix.gettimeofday () in
    let freed = Heap.retain heap ~live in
    let t2 = Unix.gettimeofday () in
    let reads1, writes1 = counts () in
    ( (t1 -. t0) *. 1e3,
      (t2 -. t1) *. 1e3,
      freed.Heap.blocks,
      reads1 - reads0,
      writes1 - writes0 )
  in
  let results = List.init rounds (fun _ -> round ()) in
  let median f =
    List.nth (List.sort compare (List.map f results)) (rounds / 2)
  in
  let _, _, freed, reads, writes = List.hd results in
  print_endline "";
  print_endline "=== the heap's share of a restart (R1) ===";
  Printf.printf
    "heap/recover  %d blocks, %d freed: attach %.2f ms + sweep %.2f ms = \
     %.2f ms (median of %d); %d reads, %d writes\n%!"
    blocks freed
    (median (fun (a, _, _, _, _) -> a))
    (median (fun (_, r, _, _, _) -> r))
    (median (fun (a, r, _, _, _) -> a +. r))
    rounds reads writes

(* ------------------------------------------------------------------ *)
(* E1-E3: the Section 5.2 verdict table                                *)

let experiment_table () =
  print_endline "";
  print_endline "=== Section 5.2 running examples (E1-E3) ===";
  Printf.printf "%-10s %-8s %-6s %8s %6s %6s  %s\n" "impl" "range" "seeds"
    "crashes" "succ" "fail" "verdicts";
  let row ~impl ~range ~range_name ~seeds ~n_ops ~workers ~prob =
    let crashes = ref 0 and succ = ref 0 and fail = ref 0 in
    let serializable = ref 0 and flagged = ref 0 in
    for seed = 1 to seeds do
      let o =
        Experiment.run
          {
            Experiment.n_ops;
            range;
            seed;
            workers;
            variant = impl;
            crash_mode = Experiment.Random_ops prob;
            stack_kind = Runtime.System.Bounded_stack 4096;
          }
      in
      crashes := !crashes + o.Experiment.crashes;
      succ :=
        !succ + List.length (Verify.History.successes o.Experiment.history);
      fail :=
        !fail + List.length (Verify.History.failures o.Experiment.history);
      match o.Experiment.verdict with
      | Verify.Serializability.Serializable _ -> incr serializable
      | Verify.Serializability.Not_serializable _ -> incr flagged
    done;
    Printf.printf
      "%-10s %-8s %-6d %8d %6d %6d  %d serializable / %d flagged\n%!"
      (match impl with Rcas.Correct -> "correct" | Rcas.Buggy -> "buggy")
      range_name seeds !crashes !succ !fail !serializable !flagged
  in
  (* E1: wide range, correct CAS -> all serializable *)
  row ~impl:Rcas.Correct ~range:Verify.Generator.Wide ~range_name:"wide"
    ~seeds:5 ~n_ops:64 ~workers:4 ~prob:0.01;
  (* E2: narrow range, correct CAS -> all serializable *)
  row ~impl:Rcas.Correct ~range:Verify.Generator.Narrow ~range_name:"narrow"
    ~seeds:5 ~n_ops:64 ~workers:4 ~prob:0.01;
  (* E3: buggy CAS under contention -> flagged executions appear;
     the control row shows the correct CAS stays clean there *)
  row ~impl:Rcas.Buggy
    ~range:(Verify.Generator.Custom (0, 1))
    ~range_name:"tight" ~seeds:8 ~n_ops:300 ~workers:8 ~prob:0.02;
  row ~impl:Rcas.Correct
    ~range:(Verify.Generator.Custom (0, 1))
    ~range_name:"tight" ~seeds:8 ~n_ops:300 ~workers:8 ~prob:0.02

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let usage () =
  prerr_endline
    "usage: main.exe [--json [PATH]] [--iters N] [--full]\n\n\
    \  (no flags)    micro-benchmarks + experiment table + scaling table\n\
    \  --json [PATH] run only the worker-scaling rows and write them as\n\
    \                JSON to PATH (default BENCH_pmem.json)\n\
    \  --iters N     scaling iterations per worker (default 20000)\n\
    \  --full        with --json: also run the micro-benchmarks and\n\
    \                experiment table";
  exit 2

let () =
  let json_path = ref None in
  let iters = ref 20_000 in
  let full = ref false in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest -> (
        match rest with
        | path :: rest' when String.length path > 0 && path.[0] <> '-' ->
            json_path := Some path;
            parse rest'
        | _ ->
            json_path := Some "BENCH_pmem.json";
            parse rest)
    | "--iters" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n > 0 ->
            iters := n;
            parse rest
        | _ -> usage ())
    | "--full" :: rest ->
        full := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let everything = !json_path = None || !full in
  if everything then begin
    print_endline "=== micro-benchmarks (B1-B7) ===";
    run_benchmarks
      [
        Test.make_grouped ~name:"B1" b1_tests;
        Test.make_grouped ~name:"B2" b2_tests;
        Test.make_grouped ~name:"B3" b3_tests;
        Test.make_grouped ~name:"B4" b4_tests;
        Test.make_grouped ~name:"B5" b5_tests;
        Test.make_grouped ~name:"B6" b6_tests;
        Test.make_grouped ~name:"B7" b7_tests;
        Test.make_grouped ~name:"B8" b8_tests;
      ];
    heap_recover ();
    experiment_table ()
  end;
  let rows = scaling_rows ~iters:!iters in
  print_scaling rows;
  Option.iter (fun path -> write_json ~path rows) !json_path
