(* Tests for the recoverable hash map: sequential semantics, version
   shadowing, evidence-based recovery of put and remove, concurrency, and
   crash-point sweeps through the runtime. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module R = Runtime
module Rmap = Recoverable.Rmap
module Map_op = Recoverable.Map_op
module Chain = Recoverable.Chain

let off = Offset.of_int

let fresh ?(buckets = 8) ?(nprocs = 4) () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
  let heap = Heap.format pmem ~base:(off 4096) ~len:(1 lsl 19) in
  let m = Rmap.create pmem ~heap ~base:(off 64) ~buckets ~nprocs in
  (pmem, heap, m)

let test_basic_semantics () =
  let _, _, m = fresh () in
  Alcotest.(check (option int)) "absent" None (Rmap.find m ~key:7);
  Rmap.put m ~key:7 ~value:70;
  Rmap.put m ~key:8 ~value:80;
  Alcotest.(check (option int)) "found 7" (Some 70) (Rmap.find m ~key:7);
  Alcotest.(check (option int)) "found 8" (Some 80) (Rmap.find m ~key:8);
  Alcotest.(check int) "cardinal" 2 (Rmap.cardinal m);
  (* update = newer version shadows *)
  Rmap.put m ~key:7 ~value:71;
  Alcotest.(check (option int)) "updated" (Some 71) (Rmap.find m ~key:7);
  Alcotest.(check int) "cardinal stable" 2 (Rmap.cardinal m);
  (* remove *)
  Alcotest.(check bool) "remove present" true (Rmap.remove m ~pid:0 ~key:7);
  Alcotest.(check (option int)) "gone" None (Rmap.find m ~key:7);
  Alcotest.(check bool) "remove absent" false (Rmap.remove m ~pid:0 ~key:7);
  (* reinsert after remove *)
  Rmap.put m ~key:7 ~value:72;
  Alcotest.(check (option int)) "reinserted" (Some 72) (Rmap.find m ~key:7);
  Alcotest.(check (list (pair int int))) "bindings"
    [ (7, 72); (8, 80) ]
    (List.sort compare (Rmap.bindings m))

let test_many_keys_collisions () =
  (* more keys than buckets: chains must behave *)
  let _, _, m = fresh ~buckets:4 () in
  for k = 0 to 63 do
    Rmap.put m ~key:k ~value:(k * 10)
  done;
  Alcotest.(check int) "cardinal" 64 (Rmap.cardinal m);
  for k = 0 to 63 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" k)
      (Some (k * 10))
      (Rmap.find m ~key:k)
  done;
  for k = 0 to 63 do
    if k mod 2 = 0 then
      Alcotest.(check bool) "remove" true (Rmap.remove m ~pid:0 ~key:k)
  done;
  Alcotest.(check int) "half left" 32 (Rmap.cardinal m)

let test_survives_reattach () =
  let pmem, heap, m = fresh () in
  Rmap.put m ~key:1 ~value:10;
  Rmap.put m ~key:2 ~value:20;
  ignore (Rmap.remove m ~pid:0 ~key:1);
  Pmem.crash_and_restart pmem;
  let m' = Rmap.attach pmem ~heap ~base:(off 64) ~buckets:8 ~nprocs:4 in
  Alcotest.(check (option int)) "2 persists" (Some 20) (Rmap.find m' ~key:2);
  Alcotest.(check (option int)) "1 stays removed" None (Rmap.find m' ~key:1)

let test_put_evidence () =
  let _, heap, m = fresh () in
  let node = Chain.alloc_node (Rmap.chain m) ~heap [ 5; 50 ] in
  Alcotest.(check bool) "not linked" false (Rmap.is_linked m ~node);
  Rmap.link_recover m ~node (* interrupted put: completes *);
  Alcotest.(check bool) "linked" true (Rmap.is_linked m ~node);
  Rmap.link_recover m ~node (* repeated failure: no duplicate *);
  Alcotest.(check int) "single binding" 1 (Rmap.cardinal m);
  Alcotest.(check (option int)) "value" (Some 50) (Rmap.find m ~key:5)

let test_remove_evidence () =
  let _, _, m = fresh () in
  Rmap.put m ~key:5 ~value:50;
  let seq = Chain.bump (Rmap.chain m) ~pid:1 in
  Alcotest.(check bool) "claim" true (Rmap.claim_newest m ~pid:1 ~seq ~key:5);
  Alcotest.(check bool) "recover finds token" true
    (Rmap.claim_recover m ~pid:1 ~seq ~key:5);
  Alcotest.(check bool) "idempotent" true
    (Rmap.claim_recover m ~pid:1 ~seq ~key:5);
  Alcotest.(check (option int)) "removed once" None (Rmap.find m ~key:5);
  (* an attempt that never took effect re-executes against absent key *)
  let seq2 = Chain.bump (Rmap.chain m) ~pid:1 in
  Alcotest.(check bool) "fresh recover on absent key" false
    (Rmap.claim_recover m ~pid:1 ~seq:seq2 ~key:5)

let test_concurrent_removes_exactly_once () =
  (* n threads race to remove the same key: exactly one wins *)
  let _, _, m = fresh () in
  Rmap.put m ~key:9 ~value:90;
  let wins = Array.make 4 false in
  let threads =
    List.init 4 (fun pid ->
        Thread.create (fun () -> wins.(pid) <- Rmap.remove m ~pid ~key:9) ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "one winner" 1
    (Array.to_list wins |> List.filter Fun.id |> List.length)

let test_concurrent_puts () =
  let _, _, m = fresh ~buckets:4 () in
  let threads =
    List.init 4 (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to 49 do
              Rmap.put m ~key:((p * 50) + i) ~value:p
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "all present" 200 (Rmap.cardinal m)

(* ------------------------------------------------------------------ *)
(* Crash sweeps through the runtime                                    *)

let put_id = 70
let put_attempt_id = 71
let remove_id = 72
let remove_attempt_id = 73
let find_id = 74

let run_map_workload ~plan =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 21) () in
  let registry = R.Registry.create () in
  let map = ref None in
  let handle () = Option.get !map in
  Map_op.register_put registry ~id:put_id ~attempt_id:put_attempt_id handle;
  Map_op.register_remove registry ~id:remove_id ~attempt_id:remove_attempt_id
    handle;
  Map_op.register_find registry ~id:find_id handle;
  let workers = 1 in
  let config =
    {
      R.System.workers;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = 16;
      task_max_args = 32;
    }
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base =
          Heap.alloc (R.System.heap sys)
            (Rmap.region_size ~buckets:8 ~nprocs:workers)
        in
        map :=
          Some
            (Rmap.create pmem ~heap:(R.System.heap sys) ~base ~buckets:8
               ~nprocs:workers);
        R.System.set_root sys base)
      ~reattach:(fun sys ->
        map :=
          Some
            (Rmap.attach pmem ~heap:(R.System.heap sys)
               ~base:(Option.get (R.System.root sys))
               ~buckets:8 ~nprocs:workers))
      ~reclaim:(fun sys ->
        Option.to_list (R.System.root sys)
        @ Rmap.live_nodes (Option.get !map))
      ~submit:(fun sys ->
        let put k v =
          ignore
            (R.System.submit sys ~func_id:put_id ~args:(R.Value.of_int2 k v))
        in
        let remove k =
          ignore (R.System.submit sys ~func_id:remove_id ~args:(R.Value.of_int k))
        in
        let find k =
          ignore (R.System.submit sys ~func_id:find_id ~args:(R.Value.of_int k))
        in
        put 1 10;
        put 2 20;
        put 1 11 (* update *);
        remove 2;
        remove 3 (* absent *);
        find 1;
        find 2;
        put 3 30)
      ~plan ()
  in
  let answers = List.map snd report.R.Driver.results in
  (answers, List.sort compare (Rmap.bindings (Option.get !map)))

let expected_answers =
  [
    0L (* put 1 *);
    0L (* put 2 *);
    0L (* put 1 update *);
    1L (* remove 2: present *);
    0L (* remove 3: absent *);
    11L (* find 1 *);
    Int64.min_int (* find 2: absent *);
    0L (* put 3 *);
  ]

let expected_bindings = [ (1, 11); (3, 30) ]

let test_map_baseline () =
  let answers, bindings = run_map_workload ~plan:(fun ~era:_ -> Crash.Never) in
  Alcotest.(check (list int64)) "answers" expected_answers answers;
  Alcotest.(check (list (pair int int))) "bindings" expected_bindings bindings

let test_map_crash_sweep () =
  for p = 1 to 320 do
    let answers, bindings =
      run_map_workload ~plan:(fun ~era ->
          if era = 1 then Crash.At_op p else Crash.Never)
    in
    if answers <> expected_answers || bindings <> expected_bindings then
      Alcotest.failf "crash at op %d: answers [%s] bindings [%s]" p
        (String.concat ";" (List.map Int64.to_string answers))
        (String.concat ";"
           (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) bindings))
  done

let test_map_repeated_crashes () =
  List.iter
    (fun stride ->
      let answers, bindings =
        run_map_workload ~plan:(fun ~era ->
            if era <= 14 then Crash.At_op (stride + (13 * era)) else Crash.Never)
      in
      Alcotest.(check (list int64)) "answers" expected_answers answers;
      Alcotest.(check (list (pair int int))) "bindings" expected_bindings
        bindings)
    [ 19; 47; 101 ]

let () =
  Alcotest.run "rmap"
    [
      ( "semantics",
        [
          Alcotest.test_case "basics" `Quick test_basic_semantics;
          Alcotest.test_case "collisions" `Quick test_many_keys_collisions;
          Alcotest.test_case "survives reattach" `Quick test_survives_reattach;
        ] );
      ( "evidence",
        [
          Alcotest.test_case "put" `Quick test_put_evidence;
          Alcotest.test_case "remove" `Quick test_remove_evidence;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "removes exactly once" `Quick
            test_concurrent_removes_exactly_once;
          Alcotest.test_case "parallel puts" `Quick test_concurrent_puts;
        ] );
      ( "crash sweeps",
        [
          Alcotest.test_case "baseline" `Quick test_map_baseline;
          Alcotest.test_case "crash-point sweep" `Slow test_map_crash_sweep;
          Alcotest.test_case "repeated crashes" `Quick test_map_repeated_crashes;
        ] );
    ]
