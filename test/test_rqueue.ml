(* Tests for the recoverable queue (future-work direction 1) and the
   buffered durably linearizable register (Section 2.4, condition 3). *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module R = Runtime
module Rqueue = Recoverable.Rqueue
module Chain = Recoverable.Chain
module Queue_op = Recoverable.Queue_op
module Bregister = Recoverable.Bregister

let off = Offset.of_int

let fresh_queue ?(nprocs = 4) () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
  let heap = Heap.format pmem ~base:(off 4096) ~len:(1 lsl 19) in
  let q = Rqueue.create pmem ~heap ~base:(off 64) ~nprocs in
  (pmem, heap, q)

(* ------------------------------------------------------------------ *)
(* Queue semantics                                                     *)

let test_fifo () =
  let _, _, q = fresh_queue () in
  Alcotest.(check (option int)) "empty" None (Rqueue.dequeue q ~pid:0);
  Rqueue.enqueue q 1;
  Rqueue.enqueue q 2;
  Rqueue.enqueue q 3;
  Alcotest.(check (list int)) "content" [ 1; 2; 3 ] (Rqueue.to_list q);
  Alcotest.(check int) "length" 3 (Rqueue.length q);
  Alcotest.(check (option int)) "deq 1" (Some 1) (Rqueue.dequeue q ~pid:0);
  Alcotest.(check (option int)) "deq 2" (Some 2) (Rqueue.dequeue q ~pid:1);
  Rqueue.enqueue q 4;
  Alcotest.(check (option int)) "deq 3" (Some 3) (Rqueue.dequeue q ~pid:2);
  Alcotest.(check (option int)) "deq 4" (Some 4) (Rqueue.dequeue q ~pid:3);
  Alcotest.(check (option int)) "empty again" None (Rqueue.dequeue q ~pid:0);
  Alcotest.(check int) "length 0" 0 (Rqueue.length q)

let test_survives_reattach () =
  let pmem, heap, q = fresh_queue () in
  List.iter (Rqueue.enqueue q) [ 10; 20; 30 ];
  ignore (Rqueue.dequeue q ~pid:0);
  Pmem.crash_and_restart pmem;
  let q' = Rqueue.attach pmem ~heap ~base:(off 64) ~nprocs:4 in
  Alcotest.(check (list int)) "persisted content" [ 20; 30 ] (Rqueue.to_list q');
  Alcotest.(check (option int)) "continues" (Some 20) (Rqueue.dequeue q' ~pid:1)

let test_link_evidence () =
  let _, heap, q = fresh_queue () in
  let node = Chain.alloc_node (Rqueue.chain q) ~heap [ 7 ] in
  Alcotest.(check bool) "not linked before" false (Rqueue.is_linked q ~node);
  Rqueue.link q ~node;
  Alcotest.(check bool) "linked after" true (Rqueue.is_linked q ~node);
  (* recovery of a completed link is a no-op: no duplicate *)
  Rqueue.link_recover q ~node;
  Alcotest.(check (list int)) "no duplicate" [ 7 ] (Rqueue.to_list q);
  (* recovery of an interrupted link completes it *)
  let node2 = Chain.alloc_node (Rqueue.chain q) ~heap [ 8 ] in
  Rqueue.link_recover q ~node:node2;
  Alcotest.(check (list int)) "completed" [ 7; 8 ] (Rqueue.to_list q)

let test_take_evidence () =
  let _, _, q = fresh_queue () in
  List.iter (Rqueue.enqueue q) [ 5; 6 ];
  let seq = Chain.bump (Rqueue.chain q) ~pid:0 in
  Alcotest.(check (option int)) "take" (Some 5) (Rqueue.take q ~pid:0 ~seq);
  (* re-running the recovery returns the same claim, not a new node *)
  Alcotest.(check (option int)) "recover finds claim" (Some 5)
    (Rqueue.take_recover q ~pid:0 ~seq);
  Alcotest.(check (option int)) "recover idempotent" (Some 5)
    (Rqueue.take_recover q ~pid:0 ~seq);
  Alcotest.(check (list int)) "6 still queued" [ 6 ] (Rqueue.to_list q);
  (* an attempt that never ran re-executes *)
  let seq2 = Chain.bump (Rqueue.chain q) ~pid:0 in
  Alcotest.(check (option int)) "fresh recover executes" (Some 6)
    (Rqueue.take_recover q ~pid:0 ~seq:seq2)

let test_concurrent_exactly_once () =
  let _, _, q = fresh_queue ~nprocs:4 () in
  let n_per = 100 in
  (* 2 producers, 2 consumers *)
  let consumed = Array.make 4 [] in
  let producers =
    List.init 2 (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to n_per - 1 do
              Rqueue.enqueue q ((p * n_per) + i)
            done)
          ())
  in
  let stop = Atomic.make 0 in
  let consumers =
    List.init 2 (fun c ->
        Thread.create
          (fun () ->
            let pid = 2 + c in
            let rec loop () =
              match Rqueue.dequeue q ~pid with
              | Some v ->
                  consumed.(pid) <- v :: consumed.(pid);
                  loop ()
              | None ->
                  if Atomic.get stop < 2 then begin
                    Thread.yield ();
                    loop ()
                  end
            in
            loop ())
          ())
  in
  List.iter
    (fun t ->
      Thread.join t;
      ignore (Atomic.fetch_and_add stop 1))
    producers;
  List.iter Thread.join consumers;
  (* drain leftovers *)
  let rec drain acc =
    match Rqueue.dequeue q ~pid:0 with
    | Some v -> drain (v :: acc)
    | None -> acc
  in
  let leftovers = drain [] in
  let all =
    List.sort compare (consumed.(2) @ consumed.(3) @ leftovers)
  in
  Alcotest.(check (list int)) "every value exactly once"
    (List.init (2 * n_per) Fun.id)
    all

let test_per_consumer_fifo () =
  (* single consumer: strict FIFO even with concurrent producers *)
  let _, _, q = fresh_queue ~nprocs:3 () in
  let producers =
    List.init 2 (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to 49 do
              Rqueue.enqueue q ((p * 1000) + i)
            done)
          ())
  in
  List.iter Thread.join producers;
  let rec drain acc =
    match Rqueue.dequeue q ~pid:2 with
    | Some v -> drain (v :: acc)
    | None -> List.rev acc
  in
  let order = drain [] in
  (* per-producer subsequences must be increasing *)
  let increasing p =
    let mine = List.filter (fun v -> v / 1000 = p) order in
    mine = List.sort compare mine
  in
  Alcotest.(check bool) "producer 0 order kept" true (increasing 0);
  Alcotest.(check bool) "producer 1 order kept" true (increasing 1)

(* ------------------------------------------------------------------ *)
(* Crash sweeps through the runtime                                    *)

let enq_id = 60
let enq_attempt_id = 61
let deq_id = 62
let deq_attempt_id = 63

let queue_system () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 21) () in
  let registry = R.Registry.create () in
  let queue = ref None in
  let handle () = Option.get !queue in
  Queue_op.register_enqueue registry ~id:enq_id ~attempt_id:enq_attempt_id
    handle;
  Queue_op.register_dequeue registry ~id:deq_id ~attempt_id:deq_attempt_id
    handle;
  (pmem, registry, queue)

let run_queue_workload ~plan ~enqueues ~dequeues =
  let pmem, registry, queue = queue_system () in
  let workers = 1 in
  let config =
    {
      R.System.workers;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = enqueues + dequeues;
      task_max_args = 16;
    }
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base =
          Heap.alloc (R.System.heap sys) (Rqueue.region_size ~nprocs:workers)
        in
        queue :=
          Some
            (Rqueue.create pmem ~heap:(R.System.heap sys) ~base
               ~nprocs:workers);
        R.System.set_root sys base)
      ~reattach:(fun sys ->
        queue :=
          Some
            (Rqueue.attach pmem ~heap:(R.System.heap sys)
               ~base:(Option.get (R.System.root sys))
               ~nprocs:workers))
      ~reclaim:(fun sys ->
        (match R.System.root sys with Some r -> [ r ] | None -> [])
        @ Rqueue.live_nodes (Option.get !queue))
      ~submit:(fun sys ->
        for v = 1 to enqueues do
          ignore (R.System.submit sys ~func_id:enq_id ~args:(R.Value.of_int v))
        done;
        for _ = 1 to dequeues do
          ignore (R.System.submit sys ~func_id:deq_id ~args:Bytes.empty)
        done)
      ~plan ()
  in
  let dequeued =
    List.filteri (fun i _ -> i >= enqueues) report.R.Driver.results
    |> List.filter_map (fun (_, a) -> Queue_op.dequeue_answer a)
  in
  (dequeued, Rqueue.to_list (Option.get !queue))

let test_queue_baseline () =
  let dequeued, remaining =
    run_queue_workload ~plan:(fun ~era:_ -> Crash.Never) ~enqueues:5 ~dequeues:3
  in
  (* single worker processes tasks in order: enqueues then dequeues *)
  Alcotest.(check (list int)) "dequeued FIFO" [ 1; 2; 3 ] dequeued;
  Alcotest.(check (list int)) "remaining" [ 4; 5 ] remaining

let test_queue_crash_sweep () =
  for p = 1 to 320 do
    let dequeued, remaining =
      run_queue_workload
        ~plan:(fun ~era -> if era = 1 then Crash.At_op p else Crash.Never)
        ~enqueues:5 ~dequeues:3
    in
    (* exactly-once: dequeued + remaining = {1..5}, dequeues in FIFO order *)
    if
      dequeued <> [ 1; 2; 3 ]
      || remaining <> [ 4; 5 ]
    then
      Alcotest.failf "crash at op %d: dequeued [%s] remaining [%s]" p
        (String.concat ";" (List.map string_of_int dequeued))
        (String.concat ";" (List.map string_of_int remaining))
  done

let test_queue_repeated_crashes () =
  List.iter
    (fun stride ->
      let dequeued, remaining =
        run_queue_workload
          ~plan:(fun ~era ->
            if era <= 16 then Crash.At_op (stride + (9 * era)) else Crash.Never)
          ~enqueues:5 ~dequeues:3
      in
      Alcotest.(check (list int)) "dequeued" [ 1; 2; 3 ] dequeued;
      Alcotest.(check (list int)) "remaining" [ 4; 5 ] remaining)
    [ 17; 41; 83 ]

(* ------------------------------------------------------------------ *)
(* Buffered durable linearizability (Section 2.4)                      *)

let test_bregister_buffers () =
  let pmem = Pmem.create ~policy:Pmem.Lose_all ~size:4096 () in
  let r = Bregister.create pmem ~base:(off 64) ~init:1 in
  Bregister.write r 2;
  Bregister.write r 3;
  Alcotest.(check int) "reads see latest" 3 (Bregister.read r);
  Alcotest.(check int) "synced lags" 1 (Bregister.synced_value r);
  Pmem.crash_and_restart pmem;
  let r = Bregister.attach pmem ~base:(off 64) in
  Alcotest.(check int) "unsynced writes lost" 1 (Bregister.read r)

let test_bregister_sync_barrier () =
  let pmem = Pmem.create ~policy:Pmem.Lose_all ~size:4096 () in
  let r = Bregister.create pmem ~base:(off 64) ~init:1 in
  Bregister.write r 2;
  Bregister.sync r;
  Bregister.write r 3 (* after the sync: may be lost *);
  Pmem.crash_and_restart pmem;
  let r = Bregister.attach pmem ~base:(off 64) in
  Alcotest.(check int) "everything before sync survives" 2 (Bregister.read r)

let test_bregister_bdl_invariant () =
  (* under a spontaneous-writeback policy, the recovered value is the last
     synced one or any later one — never an older one *)
  for seed = 1 to 20 do
    let pmem = Pmem.create ~policy:(Pmem.Lose_random seed) ~size:4096 () in
    let r = Bregister.create pmem ~base:(off 64) ~init:0 in
    let synced = ref 0 in
    for v = 1 to 10 do
      Bregister.write r v;
      if v = 6 then begin
        Bregister.sync r;
        synced := v
      end
    done;
    Pmem.crash_and_restart pmem;
    let recovered = Bregister.read (Bregister.attach pmem ~base:(off 64)) in
    if recovered < !synced || recovered > 10 then
      Alcotest.failf "seed %d: recovered %d violates BDL (synced %d)" seed
        recovered !synced
  done

(* ------------------------------------------------------------------ *)
(* Recoverable LIFO stack object                                       *)

module Rstack = Recoverable.Rstack

let fresh_stack ?(nprocs = 4) () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
  let heap = Heap.format pmem ~base:(off 4096) ~len:(1 lsl 19) in
  (pmem, heap, Rstack.create pmem ~heap ~base:(off 64) ~nprocs)

let test_stack_lifo () =
  let _, _, s = fresh_stack () in
  Alcotest.(check (option int)) "empty" None (Rstack.pop s ~pid:0);
  Rstack.push s 1;
  Rstack.push s 2;
  Rstack.push s 3;
  Alcotest.(check (list int)) "top first" [ 3; 2; 1 ] (Rstack.to_list s);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Rstack.pop s ~pid:0);
  Rstack.push s 4;
  Alcotest.(check (option int)) "pop 4" (Some 4) (Rstack.pop s ~pid:1);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Rstack.pop s ~pid:2);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Rstack.pop s ~pid:3);
  Alcotest.(check (option int)) "drained" None (Rstack.pop s ~pid:0);
  Alcotest.(check int) "length" 0 (Rstack.length s)

let test_stack_evidence () =
  let pmem, heap, s = fresh_stack () in
  let node = Chain.alloc_node (Rstack.chain s) ~heap [ 9 ] in
  Alcotest.(check bool) "not linked" false (Rstack.is_linked s ~node);
  Rstack.link_recover s ~node;
  Alcotest.(check bool) "linked" true (Rstack.is_linked s ~node);
  Rstack.link_recover s ~node;
  Alcotest.(check (list int)) "no duplicate" [ 9 ] (Rstack.to_list s);
  let seq = Chain.bump (Rstack.chain s) ~pid:2 in
  Alcotest.(check (option int)) "take" (Some 9) (Rstack.take s ~pid:2 ~seq);
  Alcotest.(check (option int)) "recover finds claim" (Some 9)
    (Rstack.take_recover s ~pid:2 ~seq);
  (* persistence across reattach *)
  Rstack.push s 10;
  Pmem.crash_and_restart pmem;
  let s = Rstack.attach pmem ~heap ~base:(off 64) ~nprocs:4 in
  Alcotest.(check (list int)) "reattached content" [ 10 ] (Rstack.to_list s)

let test_stack_concurrent_exactly_once () =
  let _, _, s = fresh_stack () in
  for v = 1 to 200 do
    Rstack.push s v
  done;
  let popped = Array.make 4 [] in
  let threads =
    List.init 4 (fun pid ->
        Thread.create
          (fun () ->
            let rec loop () =
              match Rstack.pop s ~pid with
              | Some v ->
                  popped.(pid) <- v :: popped.(pid);
                  loop ()
              | None -> ()
            in
            loop ())
          ())
  in
  List.iter Thread.join threads;
  let all =
    List.sort compare (popped.(0) @ popped.(1) @ popped.(2) @ popped.(3))
  in
  Alcotest.(check (list int)) "every value exactly once"
    (List.init 200 (fun i -> i + 1))
    all

let spush_id = 80
let spush_attempt_id = 81
let spop_id = 82
let spop_attempt_id = 83

(* runtime bindings now live in Recoverable.Stack_op (the stack mirrors the
   queue pattern) *)
let register_stack_ops registry handle =
  Recoverable.Stack_op.register_push registry ~id:spush_id
    ~attempt_id:spush_attempt_id handle;
  Recoverable.Stack_op.register_pop registry ~id:spop_id
    ~attempt_id:spop_attempt_id handle

let stack_answer = Recoverable.Stack_op.pop_answer

let run_stack_workload ~plan =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 21) () in
  let registry = R.Registry.create () in
  let stack = ref None in
  let handle () = Option.get !stack in
  register_stack_ops registry handle;
  let config =
    {
      R.System.workers = 1;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = 8;
      task_max_args = 16;
    }
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base =
          Heap.alloc (R.System.heap sys) (Rstack.region_size ~nprocs:1)
        in
        stack :=
          Some (Rstack.create pmem ~heap:(R.System.heap sys) ~base ~nprocs:1);
        R.System.set_root sys base)
      ~reattach:(fun sys ->
        stack :=
          Some
            (Rstack.attach pmem ~heap:(R.System.heap sys)
               ~base:(Option.get (R.System.root sys))
               ~nprocs:1))
      ~reclaim:(fun sys ->
        Option.to_list (R.System.root sys)
        @ Rstack.live_nodes (Option.get !stack))
      ~submit:(fun sys ->
        (* push 1 2 3, pop, push 4, pop, pop, pop -> pops 3 4 2 1 *)
        let push v =
          ignore (R.System.submit sys ~func_id:spush_id ~args:(R.Value.of_int v))
        in
        let pop () =
          ignore (R.System.submit sys ~func_id:spop_id ~args:Bytes.empty)
        in
        push 1; push 2; push 3; pop (); push 4; pop (); pop (); pop ())
      ~plan ()
  in
  List.filter_map
    (fun (i, a) ->
      if List.mem i [ 3; 5; 6; 7 ] then Some (stack_answer a) else None)
    report.R.Driver.results

let expected_pops = [ Some 3; Some 4; Some 2; Some 1 ]

let test_stack_crash_sweep () =
  let baseline = run_stack_workload ~plan:(fun ~era:_ -> Crash.Never) in
  Alcotest.(check (list (option int))) "baseline" expected_pops baseline;
  for p = 1 to 300 do
    let pops =
      run_stack_workload ~plan:(fun ~era ->
          if era = 1 then Crash.At_op p else Crash.Never)
    in
    if pops <> expected_pops then
      Alcotest.failf "stack crash at op %d: pops differ" p
  done

let () =
  Alcotest.run "rqueue"
    [
      ( "queue semantics",
        [
          Alcotest.test_case "fifo" `Quick test_fifo;
          Alcotest.test_case "survives reattach" `Quick test_survives_reattach;
          Alcotest.test_case "link evidence" `Quick test_link_evidence;
          Alcotest.test_case "take evidence" `Quick test_take_evidence;
          Alcotest.test_case "concurrent exactly-once" `Quick
            test_concurrent_exactly_once;
          Alcotest.test_case "per-producer FIFO" `Quick test_per_consumer_fifo;
        ] );
      ( "queue crash sweeps",
        [
          Alcotest.test_case "baseline" `Quick test_queue_baseline;
          Alcotest.test_case "crash-point sweep" `Slow test_queue_crash_sweep;
          Alcotest.test_case "repeated crashes" `Quick
            test_queue_repeated_crashes;
        ] );
      ( "lifo stack object",
        [
          Alcotest.test_case "lifo semantics" `Quick test_stack_lifo;
          Alcotest.test_case "evidence" `Quick test_stack_evidence;
          Alcotest.test_case "concurrent exactly-once" `Quick
            test_stack_concurrent_exactly_once;
          Alcotest.test_case "crash-point sweep" `Slow test_stack_crash_sweep;
        ] );
      ( "buffered register (Section 2.4)",
        [
          Alcotest.test_case "writes buffer" `Quick test_bregister_buffers;
          Alcotest.test_case "sync barrier" `Quick test_bregister_sync_barrier;
          Alcotest.test_case "BDL invariant" `Quick test_bregister_bdl_invariant;
        ] );
    ]
