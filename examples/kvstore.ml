(* A crash-tolerant key-value store on the recoverable hash map.

   Sessions (integer ids) map to state codes.  A mixed workload of puts,
   updates, removes and lookups runs while power failures strike;
   afterwards the store must equal a sequential model of the same
   operations.  One worker executes the tasks so the submission order is
   the execution order and the model is exact — see examples/bank.ml and
   examples/pipeline.ml for the concurrent workloads.

   Run with: dune exec examples/kvstore.exe *)

module Pmem = Nvram.Pmem
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module System = Runtime.System
module Value = Runtime.Value
module Rmap = Recoverable.Rmap
module Map_op = Recoverable.Map_op

let put_id = 70
let put_attempt_id = 71
let remove_id = 72
let remove_attempt_id = 73
let find_id = 74
let workers = 1
let buckets = 16

type op = Put of int * int | Remove of int | Find of int

let workload =
  List.concat_map
    (fun k ->
      [
        Put (k, k * 100);
        Put (k, (k * 100) + 1) (* update *);
        Find k;
        (if k mod 3 = 0 then Remove k else Find k);
      ])
    (List.init 12 (fun i -> i + 1))

let () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 21) () in
  let registry = Runtime.Registry.create () in
  let store = ref None in
  let handle () = Option.get !store in
  Map_op.register_put registry ~id:put_id ~attempt_id:put_attempt_id handle;
  Map_op.register_remove registry ~id:remove_id ~attempt_id:remove_attempt_id
    handle;
  Map_op.register_find registry ~id:find_id handle;
  let config =
    {
      System.workers;
      stack_kind = System.Bounded_stack 4096;
      task_capacity = List.length workload;
      task_max_args = 32;
    }
  in
  let report =
    Runtime.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base =
          Heap.alloc (System.heap sys)
            (Rmap.region_size ~buckets ~nprocs:workers)
        in
        store :=
          Some
            (Rmap.create pmem ~heap:(System.heap sys) ~base ~buckets
               ~nprocs:workers);
        System.set_root sys base)
      ~reattach:(fun sys ->
        store :=
          Some
            (Rmap.attach pmem ~heap:(System.heap sys)
               ~base:(Option.get (System.root sys))
               ~buckets ~nprocs:workers))
      ~reclaim:(fun sys ->
        Option.to_list (System.root sys) @ Rmap.live_nodes (Option.get !store))
      ~submit:(fun sys ->
        List.iter
          (fun op ->
            ignore
              (match op with
              | Put (k, v) ->
                  System.submit sys ~func_id:put_id ~args:(Value.of_int2 k v)
              | Remove k ->
                  System.submit sys ~func_id:remove_id ~args:(Value.of_int k)
              | Find k ->
                  System.submit sys ~func_id:find_id ~args:(Value.of_int k)))
          workload)
      ~plan:(fun ~era ->
        if era <= 8 then Crash.Random { seed = 7 * era; probability = 0.004 }
        else Crash.Never)
      ()
  in
  (* sequential model: one worker executes tasks in submission order *)
  let model = Hashtbl.create 16 in
  List.iter
    (fun op ->
      match op with
      | Put (k, v) -> Hashtbl.replace model k v
      | Remove k -> Hashtbl.remove model k
      | Find _ -> ())
    workload;
  let expected =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
  in
  let actual = List.sort compare (Rmap.bindings (Option.get !store)) in
  Printf.printf "%d operations, %d crashes; store has %d live keys\n"
    (List.length workload) report.Runtime.Driver.crashes (List.length actual);
  assert (actual = expected);
  print_endline "kvstore: OK (store equals the sequential model)"
