(* Tests for the runtime: argument marshalling, the function registry, the
   nested call protocol, per-stack recovery, the persistent task table, the
   producer-consumer queue, the system modes of Section 4.3 and the
   crash-restart driver of Section 5.2. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module R = Runtime

let off = Offset.of_int

(* ------------------------------------------------------------------ *)
(* Value                                                               *)

let test_value_roundtrips () =
  Alcotest.(check int) "int" (-7) (R.Value.to_int (R.Value.of_int (-7)));
  Alcotest.(check (pair int int)) "int2" (1, -2)
    (R.Value.to_int2 (R.Value.of_int2 1 (-2)));
  let a, b, c = R.Value.to_int3 (R.Value.of_int3 4 5 6) in
  Alcotest.(check (list int)) "int3" [ 4; 5; 6 ] [ a; b; c ];
  Alcotest.(check (list int)) "ints" [ 9; 8; 7 ]
    (R.Value.to_ints (R.Value.of_ints [ 9; 8; 7 ]));
  Alcotest.(check int64) "int64" 127L (R.Value.to_int64 (R.Value.of_int64 127L));
  Alcotest.(check string) "string" "hi" (R.Value.to_string (R.Value.of_string "hi"));
  Alcotest.(check int) "offset" 640
    (Offset.to_int (R.Value.to_offset (R.Value.of_offset (off 640))));
  Alcotest.(check bool) "bool answer" true
    (R.Value.bool_of_answer (R.Value.answer_of_bool true));
  Alcotest.(check bool) "bool answer false" false
    (R.Value.bool_of_answer (R.Value.answer_of_bool false));
  Alcotest.(check int) "int answer" (-3)
    (R.Value.int_of_answer (R.Value.answer_of_int (-3)));
  Alcotest.check_raises "bad length"
    (Invalid_argument "Value.to_int: expected exactly 8 bytes") (fun () ->
      ignore (R.Value.to_int (Bytes.create 16)))

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let noop _ctx _args = 0L
let noop_recover _ctx _args = R.Registry.Complete 0L

let test_registry () =
  let reg : unit R.Registry.t = R.Registry.create () in
  R.Registry.register reg ~id:5 ~name:"f" ~body:noop ~recover:noop_recover;
  Alcotest.(check bool) "found" true (R.Registry.find reg 5 <> None);
  Alcotest.(check bool) "missing" true (R.Registry.find reg 6 = None);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Registry: id 5 already registered") (fun () ->
      R.Registry.register reg ~id:5 ~name:"f" ~body:noop ~recover:noop_recover);
  Alcotest.check_raises "reserved 0"
    (Invalid_argument "Registry: id 0 is reserved") (fun () ->
      R.Registry.register reg ~id:0 ~name:"f" ~body:noop ~recover:noop_recover);
  Alcotest.check_raises "reserved 1"
    (Invalid_argument "Registry: id 1 is reserved") (fun () ->
      R.Registry.register reg ~id:1 ~name:"f" ~body:noop ~recover:noop_recover);
  (* reserved ids can be replaced *)
  R.Registry.register_reserved reg ~id:1 ~name:"wrapper" ~body:noop
    ~recover:noop_recover;
  R.Registry.register_reserved reg ~id:1 ~name:"wrapper" ~body:noop
    ~recover:noop_recover;
  match R.Registry.find_exn reg 99 with
  | _ -> Alcotest.fail "expected Unknown_function"
  | exception R.Registry.Unknown_function 99 -> ()

(* ------------------------------------------------------------------ *)
(* Task table                                                          *)

let test_task_table () =
  let pmem = Pmem.create ~size:(1 lsl 16) () in
  let t = R.Task.create pmem ~base:(off 0) ~capacity:8 ~max_args:32 in
  Alcotest.(check int) "empty" 0 (R.Task.count t);
  let i = R.Task.add t ~func_id:7 ~args:(Bytes.of_string "abc") in
  Alcotest.(check int) "first index" 0 i;
  Alcotest.(check int) "count" 1 (R.Task.count t);
  Alcotest.(check int) "func_id" 7 (R.Task.func_id t 0);
  Alcotest.(check string) "args" "abc" (Bytes.to_string (R.Task.args t 0));
  Alcotest.(check bool) "pending" true (R.Task.status t 0 = `Pending);
  R.Task.mark_done t 0 5L;
  Alcotest.(check bool) "done" true (R.Task.status t 0 = `Done 5L);
  R.Task.mark_done t 0 5L (* idempotent *);
  Alcotest.(check bool) "still done" true (R.Task.status t 0 = `Done 5L);
  ignore (R.Task.add t ~func_id:8 ~args:Bytes.empty);
  Alcotest.(check (list int)) "pending list" [ 1 ] (R.Task.pending t);
  (* the table is persistent *)
  Pmem.crash_and_restart pmem;
  let t' = R.Task.attach pmem ~base:(off 0) in
  Alcotest.(check int) "count after crash" 2 (R.Task.count t');
  Alcotest.(check bool) "done survived" true (R.Task.status t' 0 = `Done 5L);
  Alcotest.(check (list int)) "pending survived" [ 1 ] (R.Task.pending t');
  Alcotest.check_raises "args too big"
    (Invalid_argument "Task.add: 33 argument bytes exceed the limit 32")
    (fun () -> ignore (R.Task.add t' ~func_id:9 ~args:(Bytes.create 33)))

let test_task_add_commits_on_count () =
  (* A crash before the count flush must make the submission invisible. *)
  let pmem = Pmem.create ~policy:Pmem.Lose_all ~size:(1 lsl 16) () in
  let t = R.Task.create pmem ~base:(off 0) ~capacity:8 ~max_args:32 in
  let total =
    let before = Crash.ops (Pmem.crash_ctl pmem) in
    ignore (R.Task.add t ~func_id:7 ~args:(Bytes.of_string "x"));
    Crash.ops (Pmem.crash_ctl pmem) - before
  in
  for point = 1 to total do
    let pmem = Pmem.create ~policy:Pmem.Lose_all ~size:(1 lsl 16) () in
    let t = R.Task.create pmem ~base:(off 0) ~capacity:8 ~max_args:32 in
    Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op point);
    (try ignore (R.Task.add t ~func_id:7 ~args:(Bytes.of_string "x"))
     with Crash.Crash_now -> ());
    Pmem.crash_and_restart pmem;
    let t' = R.Task.attach pmem ~base:(off 0) in
    let n = R.Task.count t' in
    if n <> 0 && n <> 1 then Alcotest.failf "crash at %d: corrupt count %d" point n;
    if n = 1 then begin
      Alcotest.(check int) "committed func" 7 (R.Task.func_id t' 0);
      Alcotest.(check string) "committed args" "x"
        (Bytes.to_string (R.Task.args t' 0))
    end
  done

(* ------------------------------------------------------------------ *)
(* Work queue                                                          *)

let test_work_queue () =
  let q = R.Work_queue.create () in
  R.Work_queue.push q 1;
  R.Work_queue.push q 2;
  Alcotest.(check int) "length" 2 (R.Work_queue.length q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (R.Work_queue.pop q);
  R.Work_queue.close q;
  Alcotest.(check (option int)) "drain after close" (Some 2)
    (R.Work_queue.pop q);
  Alcotest.(check (option int)) "closed empty" None (R.Work_queue.pop q);
  Alcotest.check_raises "push after close"
    (Invalid_argument "Work_queue.push: queue is closed") (fun () ->
      R.Work_queue.push q 3)

let test_work_queue_threads () =
  let q = R.Work_queue.create () in
  let consumed = Atomic.make 0 in
  let consumers =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            let rec loop () =
              match R.Work_queue.pop q with
              | Some _ ->
                  ignore (Atomic.fetch_and_add consumed 1);
                  loop ()
              | None -> ()
            in
            loop ())
          ())
  in
  for i = 1 to 100 do
    R.Work_queue.push q i
  done;
  R.Work_queue.close q;
  List.iter Thread.join consumers;
  Alcotest.(check int) "all consumed" 100 (Atomic.get consumed)

(* ------------------------------------------------------------------ *)
(* Exec: nested calls and recovery                                     *)

let make_system ?(workers = 1) ?(stack_kind = R.System.Bounded_stack 8192)
    registry =
  let pmem = Pmem.create ~size:(1 lsl 20) () in
  let config = { R.System.default_config with workers; stack_kind } in
  (pmem, R.System.create pmem ~registry ~config)

let fib_id = 10

let register_fib registry =
  let body ctx args =
    let n = R.Value.to_int args in
    if n <= 1 then Int64.of_int n
    else
      let a = R.Exec.call ctx ~func_id:fib_id ~args:(R.Value.of_int (n - 1)) in
      let b = R.Exec.call ctx ~func_id:fib_id ~args:(R.Value.of_int (n - 2)) in
      Int64.add a b
  in
  R.Registry.register registry ~id:fib_id ~name:"fib" ~body
    ~recover:(R.Registry.completing body)

let test_nested_calls () =
  let registry = R.Registry.create () in
  register_fib registry;
  let _pmem, sys = make_system registry in
  let ctx = R.System.ctx sys 0 in
  Alcotest.(check int64) "fib 12" 144L
    (R.Exec.call ctx ~func_id:fib_id ~args:(R.Value.of_int 12));
  Alcotest.(check int) "stack balanced" 0 (R.Exec.stack_depth ctx)

let test_nested_calls_all_stack_kinds () =
  List.iter
    (fun stack_kind ->
      let registry = R.Registry.create () in
      register_fib registry;
      let _pmem, sys = make_system ~stack_kind registry in
      let ctx = R.System.ctx sys 0 in
      Alcotest.(check int64) "fib 10" 55L
        (R.Exec.call ctx ~func_id:fib_id ~args:(R.Value.of_int 10)))
    [
      R.System.Bounded_stack 8192;
      R.System.Resizable_stack 64;
      R.System.Linked_stack 128;
    ]

let test_last_answer () =
  let registry = R.Registry.create () in
  let inner _ctx _args = 41L in
  R.Registry.register registry ~id:20 ~name:"inner" ~body:inner
    ~recover:(R.Registry.completing inner);
  let outer ctx _args =
    R.Exec.clear_last_answer ctx;
    Alcotest.(check (option int64)) "empty before call" None
      (R.Exec.last_answer ctx);
    let v = R.Exec.call ctx ~func_id:20 ~args:Bytes.empty in
    Alcotest.(check (option int64)) "answer deposited" (Some 41L)
      (R.Exec.last_answer ctx);
    Int64.add v 1L
  in
  R.Registry.register registry ~id:21 ~name:"outer" ~body:outer
    ~recover:(R.Registry.completing outer);
  let _pmem, sys = make_system registry in
  let ctx = R.System.ctx sys 0 in
  Alcotest.(check int64) "outer result" 42L
    (R.Exec.call ctx ~func_id:21 ~args:Bytes.empty)

(* [ops] counts completed calls: it ticks when a call returns, so a call a
   crash aborts leaves it unchanged. *)
let test_crashed_call_not_counted () =
  let registry = R.Registry.create () in
  register_fib registry;
  let pmem, sys = make_system registry in
  let ctx = R.System.ctx sys 0 in
  let ops () = (Obs.Counters.totals Obs.Probe.counters).Obs.Counters.ops in
  let before = ops () in
  ignore (R.Exec.call ctx ~func_id:fib_id ~args:(R.Value.of_int 1));
  Alcotest.(check int) "a completed call counts" (before + 1) (ops ());
  Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op 1);
  (match R.Exec.call ctx ~func_id:fib_id ~args:(R.Value.of_int 1) with
  | _ -> Alcotest.fail "expected a crash"
  | exception Crash.Crash_now -> ());
  Alcotest.(check int) "a crashed call does not" (before + 1) (ops ())

(* Crash-point sweep of a nested computation driven through the full
   system: whatever the crash point, after recovery every task completes
   with the right answer (Nesting-Safe Recoverable Linearizability for an
   idempotent workload). *)
let test_fib_crash_sweep () =
  let workload registry pmem =
    let config =
      {
        R.System.workers = 1;
        stack_kind = R.System.Bounded_stack 8192;
        task_capacity = 4;
        task_max_args = 16;
      }
    in
    R.Driver.run_to_completion pmem ~registry ~config
      ~submit:(fun sys ->
        List.iter
          (fun n ->
            ignore
              (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int n)))
          [ 7; 8; 9 ])
      ()
  in
  (* measure ops of a crash-free run *)
  let total =
    let registry = R.Registry.create () in
    register_fib registry;
    let pmem = Pmem.create ~size:(1 lsl 20) () in
    let report = workload registry pmem in
    Alcotest.(check int) "no crashes" 0 report.R.Driver.crashes;
    Crash.ops (Pmem.crash_ctl pmem)
  in
  let expected = [ (0, 13L); (1, 21L); (2, 34L) ] in
  (* sweep a sample of crash points (every 7th, to keep the test fast) *)
  let point = ref 1 in
  while !point <= total do
    let registry = R.Registry.create () in
    register_fib registry;
    let pmem = Pmem.create ~size:(1 lsl 20) () in
    let config =
      {
        R.System.workers = 1;
        stack_kind = R.System.Bounded_stack 8192;
        task_capacity = 4;
        task_max_args = 16;
      }
    in
    let p = !point in
    let report =
      R.Driver.run_to_completion pmem ~registry ~config
        ~submit:(fun sys ->
          List.iter
            (fun n ->
              ignore
                (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int n)))
            [ 7; 8; 9 ])
        ~plan:(fun ~era -> if era = 1 then Crash.At_op p else Crash.Never)
        ()
    in
    if report.R.Driver.results <> expected then
      Alcotest.failf "crash at op %d/%d: wrong results" p total;
    point := !point + 7
  done

let test_repeated_failures () =
  (* Crash during every era (including recovery eras) for a while: progress
     must still be made and all answers must be correct. *)
  let registry = R.Registry.create () in
  register_fib registry;
  let pmem = Pmem.create ~size:(1 lsl 20) () in
  let config =
    {
      R.System.workers = 2;
      stack_kind = R.System.Bounded_stack 8192;
      task_capacity = 8;
      task_max_args = 16;
    }
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~submit:(fun sys ->
        for n = 1 to 8 do
          ignore (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int n))
        done)
      ~plan:(fun ~era ->
        if era <= 12 then Crash.Random { seed = era; probability = 0.01 }
        else Crash.Never)
      ()
  in
  let fib = [| 0; 1; 1; 2; 3; 5; 8; 13; 21 |] in
  List.iter
    (fun (i, v) ->
      Alcotest.(check int64)
        (Printf.sprintf "task %d" i)
        (Int64.of_int fib.(i + 1))
        v)
    report.R.Driver.results

let test_system_root () =
  let registry = R.Registry.create () in
  let pmem, sys = make_system registry in
  Alcotest.(check bool) "no root initially" true (R.System.root sys = None);
  R.System.set_root sys (off 4242);
  Alcotest.(check bool) "root set" true (R.System.root sys = Some (off 4242));
  Pmem.crash_and_restart pmem;
  let sys' = R.System.attach pmem ~registry in
  Alcotest.(check bool) "root survives" true
    (R.System.root sys' = Some (off 4242))

(* System-level round trip of the linked stack's block size: the
   superblock records [Linked_stack 4096], so a recovered worker stack
   must keep allocating 4096-byte blocks.  The old [System.attach] dropped
   the parameter and the recovered stack silently chained 256-byte default
   blocks — many more blocks for the same frames, which is what the
   block-count bound detects. *)
let test_linked_block_size_survives_attach () =
  let registry : R.Exec.t R.Registry.t = R.Registry.create () in
  let pmem, sys =
    make_system ~stack_kind:(R.System.Linked_stack 4096) registry
  in
  ignore sys;
  Pmem.crash_and_restart pmem;
  let sys' = R.System.attach pmem ~registry in
  let ctx = R.System.ctx sys' 0 in
  let (R.Exec.Stack ((module S), s)) = ctx.R.Exec.stack in
  let args = Bytes.make 200 'x' in
  for i = 1 to 40 do
    S.push s ~func_id:(i + 1) ~args
  done;
  (* ~40 frames x ~220 B: a handful of 4096-byte blocks, versus one block
     per frame at the 256-byte default. *)
  let blocks = List.length (S.live_blocks s) in
  Alcotest.(check bool)
    (Printf.sprintf "recovered stack allocates full-size blocks (%d)" blocks)
    true (blocks <= 5)

let test_attach_requires_superblock () =
  let registry : R.Exec.t R.Registry.t = R.Registry.create () in
  let pmem = Pmem.create ~size:(1 lsl 16) () in
  Alcotest.check_raises "no superblock"
    (Invalid_argument "System.attach: no system superblock on this device")
    (fun () -> ignore (R.System.attach pmem ~registry))

let test_parallel_workers_complete_tasks () =
  let registry = R.Registry.create () in
  register_fib registry;
  let _pmem, sys = make_system ~workers:4 registry in
  for n = 1 to 20 do
    ignore (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int (n mod 10)))
  done;
  (match R.System.run sys with
  | `Completed -> ()
  | `Crashed -> Alcotest.fail "unexpected crash");
  let all_done =
    List.for_all (fun (_, a) -> a <> None) (R.System.results sys)
  in
  Alcotest.(check bool) "all tasks done" true all_done

(* A whole-system restart reads the heap's tiling once.  A 2-arena heap
   holds [n] blocks, every fourth free and every fourth dead (allocated, no
   root); attach, replay and the reclaiming sweep together read each block
   tag once, plus a constant for the superblocks, the task table and the
   stacks.  Separate coalescing, indexing and liveness walks read about
   three times as many.  Exactly the rooted blocks stay allocated. *)
let test_recovery_reads_each_tag_once () =
  let module Heap = Nvheap.Heap in
  let reads () = (Obs.Counters.totals Obs.Probe.counters).reads in
  let config =
    {
      R.System.workers = 2;
      stack_kind = R.System.Bounded_stack 1024;
      task_capacity = 4;
      task_max_args = 16;
    }
  in
  let recovery_reads n =
    let pmem = Pmem.create ~size:(1 lsl 20) () in
    let sys = R.System.create pmem ~registry:(R.Registry.create ()) ~config in
    let heap = R.System.heap sys in
    let blocks =
      List.init n (fun i -> Heap.alloc (Heap.with_arena heap (i mod 2)) 32)
    in
    let live = ref [] in
    List.iteri
      (fun i p ->
        match i / 2 mod 4 with
        | 0 -> Heap.free heap p
        | 1 -> ()
        | _ -> live := p :: !live)
      blocks;
    Pmem.crash_and_restart pmem;
    let before = reads () in
    let sys = R.System.attach pmem ~registry:(R.Registry.create ()) in
    (match R.System.recover ~reclaim:(fun () -> !live) sys with
    | `Completed -> ()
    | `Crashed -> Alcotest.fail "no crash is armed");
    let spent = reads () - before in
    let allocated = ref [] in
    Heap.iter_blocks (R.System.heap sys) (fun ~off ~size:_ ~allocated:a ->
        if a then
          allocated :=
            (Offset.to_int off + Heap.block_header_size) :: !allocated);
    Alcotest.(check (list int))
      (Printf.sprintf "%d blocks: exactly the rooted blocks survive" n)
      (List.sort compare (List.map Offset.to_int !live))
      (List.sort compare !allocated);
    spent
  in
  let small = recovery_reads 400 and large = recovery_reads 2000 in
  Printf.printf "recovery reads: %d blocks -> %d, %d blocks -> %d\n" 400 small
    2000 large;
  Alcotest.(check bool) "at most one read per extra block" true
    (large - small <= 2000 - 400);
  Alcotest.(check bool) "at most n reads plus a constant" true
    (large <= 2000 + 200)

let () =
  Alcotest.run "runtime"
    [
      ("value", [ Alcotest.test_case "roundtrips" `Quick test_value_roundtrips ]);
      ("registry", [ Alcotest.test_case "behaviour" `Quick test_registry ]);
      ( "task table",
        [
          Alcotest.test_case "lifecycle" `Quick test_task_table;
          Alcotest.test_case "commit on count flush" `Quick
            test_task_add_commits_on_count;
        ] );
      ( "work queue",
        [
          Alcotest.test_case "fifo and close" `Quick test_work_queue;
          Alcotest.test_case "threaded consumers" `Quick test_work_queue_threads;
        ] );
      ( "exec",
        [
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "all stack kinds" `Quick
            test_nested_calls_all_stack_kinds;
          Alcotest.test_case "answer slots" `Quick test_last_answer;
          Alcotest.test_case "crashed call not counted" `Quick
            test_crashed_call_not_counted;
        ] );
      ( "system",
        [
          Alcotest.test_case "root cell" `Quick test_system_root;
          Alcotest.test_case "attach validates" `Quick
            test_attach_requires_superblock;
          Alcotest.test_case "linked block size survives attach" `Quick
            test_linked_block_size_survives_attach;
          Alcotest.test_case "parallel workers" `Quick
            test_parallel_workers_complete_tasks;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "fib crash-point sweep" `Slow test_fib_crash_sweep;
          Alcotest.test_case "repeated failures" `Quick test_repeated_failures;
          Alcotest.test_case "restart reads each heap tag once" `Quick
            test_recovery_reads_each_tag_once;
        ] );
    ]
