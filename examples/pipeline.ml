(* A crash-tolerant work pipeline on the recoverable queue.

   Stage 1 tasks enqueue jobs into a persistent queue; stage 2 tasks
   dequeue jobs and post results.  Power failures strike throughout; after
   recovery every job flows through the pipeline exactly once — no job is
   lost, none is processed twice — because both the queue operations and
   the task wrapper are nesting-safe recoverable.

   Run with: dune exec examples/pipeline.exe *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module System = Runtime.System
module Value = Runtime.Value
module Rqueue = Recoverable.Rqueue
module Queue_op = Recoverable.Queue_op

let enq_id = 60
let enq_attempt_id = 61
let deq_id = 62
let deq_attempt_id = 63
let jobs = 40
let workers = 4

let () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 21) () in
  let registry = Runtime.Registry.create () in
  let queue = ref None in
  let handle () = Option.get !queue in
  Queue_op.register_enqueue registry ~id:enq_id ~attempt_id:enq_attempt_id
    handle;
  Queue_op.register_dequeue registry ~id:deq_id ~attempt_id:deq_attempt_id
    handle;
  let config =
    {
      System.workers;
      stack_kind = System.Bounded_stack 4096;
      task_capacity = 2 * jobs;
      task_max_args = 16;
    }
  in
  let report =
    Runtime.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base =
          Heap.alloc (System.heap sys) (Rqueue.region_size ~nprocs:workers)
        in
        queue :=
          Some (Rqueue.create pmem ~heap:(System.heap sys) ~base ~nprocs:workers);
        System.set_root sys base)
      ~reattach:(fun sys ->
        queue :=
          Some
            (Rqueue.attach pmem ~heap:(System.heap sys)
               ~base:(Option.get (System.root sys))
               ~nprocs:workers))
      ~reclaim:(fun sys ->
        Option.to_list (System.root sys)
        @ Rqueue.live_nodes (Option.get !queue))
      ~submit:(fun sys ->
        (* interleave producers and consumers so they genuinely race *)
        for v = 1 to jobs do
          ignore (System.submit sys ~func_id:enq_id ~args:(Value.of_int v));
          ignore (System.submit sys ~func_id:deq_id ~args:Bytes.empty)
        done)
      ~plan:(fun ~era ->
        if era <= 10 then Crash.Random { seed = 31 * era; probability = 0.004 }
        else Crash.Never)
      ()
  in
  (* collect: every dequeue answer that found a job, plus jobs still queued *)
  let processed =
    List.filter_map
      (fun (i, a) -> if i mod 2 = 1 then Queue_op.dequeue_answer a else None)
      report.Runtime.Driver.results
  in
  let leftover = Rqueue.to_list (Option.get !queue) in
  Printf.printf "%d jobs submitted, %d processed, %d still queued, %d crashes\n"
    jobs (List.length processed) (List.length leftover)
    report.Runtime.Driver.crashes;
  let all = List.sort compare (processed @ leftover) in
  assert (all = List.init jobs (fun i -> i + 1));
  print_endline "pipeline: OK (each job flowed through exactly once)"
