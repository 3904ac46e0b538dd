(* System-level crash-point sweeps.

   These tests drive full workloads through the crash-restart driver while
   enumerating crash points, asserting Nesting-Safe Recoverable
   Linearizability observables: every task completes exactly once with the
   right answer, whatever the crash point — including crashes during
   recovery itself (repeated failures, Section 4.3). *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module R = Runtime

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

(* The driver runs the workers as seeded fibers, so with any worker count
   a run is a function of its plan: an At_op crash lands on the same
   operation every time. *)
let fib_workload ?(flush_mode = Pmem.Eager) ?(workers = 1) ~stack_kind ~plan
    () =
  let registry = R.Registry.create () in
  register_fib registry;
  let pmem = Pmem.create ~flush_mode ~size:(1 lsl 21) () in
  let config =
    {
      R.System.workers;
      stack_kind;
      task_capacity = 4;
      task_max_args = 16;
    }
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~submit:(fun sys ->
        List.iter
          (fun n ->
            ignore (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int n)))
          [ 6; 7; 8 ])
      ~plan ()
  in
  (pmem, report)

let fib_expected = [ (0, 8L); (1, 13L); (2, 21L) ]

let sweep_fib ?flush_mode ?workers stack_kind name () =
  let _, baseline =
    fib_workload ?flush_mode ?workers ~stack_kind
      ~plan:(fun ~era:_ -> Crash.Never)
      ()
  in
  Alcotest.(check (list (pair int int64))) "baseline" fib_expected
    baseline.R.Driver.results;
  let point = ref 1 in
  (* enough points to cover the whole first era and then some *)
  while !point <= 400 do
    let p = !point in
    let _, report =
      fib_workload ?flush_mode ?workers ~stack_kind
        ~plan:(fun ~era -> if era = 1 then Crash.At_op p else Crash.Never)
        ()
    in
    if report.R.Driver.results <> fib_expected then
      Alcotest.failf "%s: crash at op %d gave wrong results" name p;
    point := !point + 5
  done

(* Crash at a point in EVERY era for a while: repeated failures during
   recovery must still make progress. *)
let sweep_fib_repeated ?flush_mode stack_kind name () =
  List.iter
    (fun p ->
      let _, report =
        fib_workload ?flush_mode ~stack_kind
          ~plan:(fun ~era ->
            if era <= 20 then Crash.At_op (p + (7 * era)) else Crash.Never)
          ()
      in
      if report.R.Driver.results <> fib_expected then
        Alcotest.failf "%s: repeated crashes at %d+7*era gave wrong results"
          name p)
    [ 25; 60; 110 ]

(* ------------------------------------------------------------------ *)
(* Transactional for-loop (Appendix A motivation): update N items through
   recursion; a crash rolls every update back via the recover functions,
   and the re-run commits.  After completion all items hold their target
   values for every crash point. *)

let txn_update_id = 30
let txn_items = 6

let target i = 1000 + (7 * i)

let register_txn registry area =
  (* args: (i, old_value); area is the offset of the item array *)
  let item ctx i = Offset.add (area ctx) (8 * i) in
  let body ctx args =
    let i, _old = R.Value.to_int2 args in
    if i >= txn_items then 0L
    else begin
      let pmem = ctx.R.Exec.pmem in
      Pmem.write_int pmem (item ctx i) (target i);
      Pmem.flush pmem ~off:(item ctx i) ~len:8;
      let next_old =
        if i + 1 >= txn_items then 0 else Pmem.read_int pmem (item ctx (i + 1))
      in
      R.Exec.call ctx ~func_id:txn_update_id
        ~args:(R.Value.of_int2 (i + 1) next_old)
    end
  in
  let recover ctx args =
    (* roll back this item; the runtime pops us and recovers the caller,
       unwinding the whole transaction (Appendix A.1); the wrapper then
       re-runs the transaction from scratch *)
    let i, old = R.Value.to_int2 args in
    if i < txn_items then begin
      let pmem = ctx.R.Exec.pmem in
      Pmem.write_int pmem (item ctx i) old;
      Pmem.flush pmem ~off:(item ctx i) ~len:8
    end;
    R.Registry.Rolled_back
  in
  R.Registry.register registry ~id:txn_update_id ~name:"txn_update" ~body
    ~recover

let txn_workload ~stack_kind ~plan =
  let registry = R.Registry.create () in
  let area_ref = ref Offset.null in
  register_txn registry (fun _ctx -> !area_ref);
  let pmem = Pmem.create ~size:(1 lsl 21) () in
  (* one worker: the transaction is a single task, so a second worker
     would only idle *)
  let config =
    {
      R.System.workers = 1;
      stack_kind;
      task_capacity = 1;
      task_max_args = 16;
    }
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let area = Heap.alloc (R.System.heap sys) (8 * txn_items) in
        for i = 0 to txn_items - 1 do
          Pmem.write_int pmem (Offset.add area (8 * i)) (-i)
        done;
        Pmem.flush pmem ~off:area ~len:(8 * txn_items);
        R.System.set_root sys area;
        area_ref := area)
      ~reattach:(fun sys -> area_ref := Option.get (R.System.root sys))
      ~reclaim:(fun sys -> Option.to_list (R.System.root sys))
      ~submit:(fun sys ->
        let first_old = Pmem.read_int pmem !area_ref in
        ignore
          (R.System.submit sys ~func_id:txn_update_id
             ~args:(R.Value.of_int2 0 first_old)))
      ~plan ()
  in
  let finals =
    List.init txn_items (fun i -> Pmem.read_int pmem (Offset.add !area_ref (8 * i)))
  in
  (report, finals)

let expected_finals = List.init txn_items target

let test_txn_baseline () =
  let report, finals = txn_workload ~stack_kind:(R.System.Bounded_stack 4096)
      ~plan:(fun ~era:_ -> Crash.Never) in
  Alcotest.(check int) "no crashes" 0 report.R.Driver.crashes;
  Alcotest.(check (list int)) "all updated" expected_finals finals

let test_txn_crash_sweep () =
  for p = 1 to 220 do
    let _, finals =
      txn_workload ~stack_kind:(R.System.Bounded_stack 4096) ~plan:(fun ~era ->
          if era = 1 then Crash.At_op p else Crash.Never)
    in
    if finals <> expected_finals then
      Alcotest.failf "txn: crash at op %d left items [%s]" p
        (String.concat ";" (List.map string_of_int finals))
  done

let test_txn_unbounded_stacks () =
  (* the for-loop is the paper's motivation for unbounded stacks: run it on
     both and with crashes *)
  List.iter
    (fun stack_kind ->
      List.iter
        (fun p ->
          let _, finals =
            txn_workload ~stack_kind ~plan:(fun ~era ->
                if era <= 2 then Crash.At_op p else Crash.Never)
          in
          if finals <> expected_finals then
            Alcotest.failf "txn unbounded: crash at op %d broke items" p)
        [ 30; 75; 120; 165 ])
    [ R.System.Resizable_stack 64; R.System.Linked_stack 128 ]

(* ------------------------------------------------------------------ *)
(* Individual crash-recovery model (Section 2.2): a single worker is
   killed mid-operation and recovers in place while the others run on. *)

let individual_kill_workload kill_plan =
  let registry = R.Registry.create () in
  register_fib registry;
  let pmem = Pmem.create ~size:(1 lsl 21) () in
  (* one worker: this calls [System.run] directly, on worker domains, so
     with several workers which operation a kill lands on would depend on
     OS timing *)
  let config =
    {
      R.System.workers = 1;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = 6;
      task_max_args = 16;
    }
  in
  let sys = R.System.create pmem ~registry ~config in
  List.iter
    (fun n -> ignore (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int n)))
    [ 5; 6; 7; 8; 9; 10 ];
  (* arm only for the worker phase: the kill must land inside a task *)
  Crash.arm_kill (Pmem.crash_ctl pmem) kill_plan;
  (match R.System.run sys with
  | `Completed -> ()
  | `Crashed -> Alcotest.fail "no system crash was armed");
  let expected = [ (0, 5L); (1, 8L); (2, 13L); (3, 21L); (4, 34L); (5, 55L) ] in
  let results =
    List.map (fun (i, a) -> (i, Option.get a)) (R.System.results sys)
  in
  (results = expected, Crash.kills_fired (Pmem.crash_ctl pmem))

let test_individual_kill_sweep () =
  let fired = ref 0 in
  let point = ref 5 in
  while !point <= 300 do
    let ok, kills = individual_kill_workload (Crash.At_op !point) in
    if not ok then
      Alcotest.failf "individual kill at op %d corrupted results" !point;
    fired := !fired + kills;
    point := !point + 9
  done;
  Alcotest.(check bool) "kills actually fired" true (!fired > 10)

let test_individual_kill_random () =
  for seed = 1 to 8 do
    let ok, _ =
      individual_kill_workload (Crash.Random { seed; probability = 0.02 })
    in
    if not ok then Alcotest.failf "random individual kill seed %d failed" seed
  done

let test_individual_kill_then_system_crash () =
  (* both failure models in one run: a worker kill in era 1, then a full
     system crash, then completion *)
  let registry = R.Registry.create () in
  register_fib registry;
  let pmem = Pmem.create ~size:(1 lsl 21) () in
  let config =
    {
      R.System.workers = 1;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = 4;
      task_max_args = 16;
    }
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~submit:(fun sys ->
        Crash.arm_kill (Pmem.crash_ctl pmem) (Crash.At_op 40);
        List.iter
          (fun n ->
            ignore
              (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int n)))
          [ 6; 7; 8 ])
      ~plan:(fun ~era -> if era = 1 then Crash.At_op 160 else Crash.Never)
      ()
  in
  Alcotest.(check (list (pair int int64))) "results" fib_expected
    report.R.Driver.results;
  Alcotest.(check bool) "system crash happened" true
    (report.R.Driver.crashes >= 1)

(* ------------------------------------------------------------------ *)
(* Cache-loss adversary: same workloads under Lose_random, where a crash
   spontaneously persists a random subset of dirty lines. *)

let test_fib_lose_random () =
  List.iter
    (fun seed ->
      let registry = R.Registry.create () in
      register_fib registry;
      let pmem = Pmem.create ~policy:(Pmem.Lose_random seed) ~size:(1 lsl 21) () in
      let config =
        {
          R.System.workers = 2;
          stack_kind = R.System.Bounded_stack 4096;
          task_capacity = 4;
          task_max_args = 16;
        }
      in
      let report =
        R.Driver.run_to_completion pmem ~registry ~config
          ~submit:(fun sys ->
            List.iter
              (fun n ->
                ignore
                  (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int n)))
              [ 6; 7; 8 ])
          ~plan:(fun ~era ->
            if era <= 6 then Crash.Random { seed = seed + era; probability = 0.02 }
            else Crash.Never)
          ()
      in
      Alcotest.(check (list (pair int int64)))
        (Printf.sprintf "lose-random seed %d" seed)
        fib_expected report.R.Driver.results)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Flush coalescing at the device level: the dirty-table states a crash
   can observe.  An elided flush leaves its line pending = dirty, so a
   crash before any barrier loses it (Lose_all); a drained line is
   persistent and survives; and a dependent read of a pending line forces
   the write-back before the value is served. *)

let persistent_int pmem off_ =
  Bytes.get_int64_le (Pmem.peek_persistent pmem ~off:off_ ~len:8) 0

let test_pending_lost_at_crash () =
  let pmem = Pmem.create ~flush_mode:Pmem.Coalesced ~size:4096 () in
  Pmem.write_int64 pmem (Offset.of_int 0) 7L;
  Pmem.flush pmem ~off:(Offset.of_int 0) ~len:8;
  Alcotest.(check int) "line is pending" 1 (Pmem.pending_line_count pmem);
  Alcotest.(check bool) "pending implies dirty" true
    (Pmem.is_dirty pmem (Offset.of_int 0));
  Alcotest.(check int64) "nothing persisted yet" 0L
    (persistent_int pmem (Offset.of_int 0));
  Pmem.crash_and_restart pmem;
  Alcotest.(check int64) "pending line lost at the crash" 0L
    (Pmem.read_int64 pmem (Offset.of_int 0));
  Alcotest.(check int) "crash clears the pending table" 0
    (Pmem.pending_line_count pmem)

let test_drained_line_survives_crash () =
  let pmem = Pmem.create ~flush_mode:Pmem.Coalesced ~size:4096 () in
  Pmem.write_int64 pmem (Offset.of_int 0) 7L;
  Pmem.flush pmem ~off:(Offset.of_int 0) ~len:8;
  Pmem.persist_barrier pmem;
  Alcotest.(check int) "barrier empties the pending table" 0
    (Pmem.pending_line_count pmem);
  Alcotest.(check int64) "write-back reached the persistent image" 7L
    (persistent_int pmem (Offset.of_int 0));
  Pmem.crash_and_restart pmem;
  Alcotest.(check int64) "drained line survives the crash" 7L
    (Pmem.read_int64 pmem (Offset.of_int 0))

let test_dependent_read_drains () =
  let pmem = Pmem.create ~flush_mode:Pmem.Coalesced ~size:4096 () in
  Pmem.write_int64 pmem (Offset.of_int 0) 7L;
  Pmem.flush pmem ~off:(Offset.of_int 0) ~len:8;
  (* a read of an unrelated line must NOT force the write-back... *)
  ignore (Pmem.read_int64 pmem (Offset.of_int 512));
  Alcotest.(check int) "unrelated read leaves the line pending" 1
    (Pmem.pending_line_count pmem);
  (* ...but a read of the pending line itself must. *)
  Alcotest.(check int64) "read serves the cached value" 7L
    (Pmem.read_int64 pmem (Offset.of_int 0));
  Alcotest.(check int) "dependent read drained it" 0
    (Pmem.pending_line_count pmem);
  Alcotest.(check int64) "and the write-back is persistent" 7L
    (persistent_int pmem (Offset.of_int 0))

let test_repeated_flushes_coalesce () =
  let pmem = Pmem.create ~flush_mode:Pmem.Coalesced ~size:4096 () in
  let ledger () = Obs.Counters.totals Obs.Probe.counters in
  let before = ledger () in
  for i = 1 to 10 do
    Pmem.write_int64 pmem (Offset.of_int 0) (Int64.of_int i);
    Pmem.flush pmem ~off:(Offset.of_int 0) ~len:8
  done;
  Pmem.drain_all pmem;
  let after = ledger () in
  Alcotest.(check int) "ten flush calls elided" 10
    (after.Obs.Counters.flushes_elided - before.Obs.Counters.flushes_elided);
  Alcotest.(check int64) "last value wins" 10L
    (persistent_int pmem (Offset.of_int 0));
  Alcotest.(check int) "one line written back once" 1
    (after.Obs.Counters.lines_flushed - before.Obs.Counters.lines_flushed)

let () =
  Alcotest.run "crashpoints"
    [
      ( "fib sweeps",
        [
          Alcotest.test_case "bounded" `Slow
            (sweep_fib (R.System.Bounded_stack 4096) "bounded");
          Alcotest.test_case "resizable" `Slow
            (sweep_fib (R.System.Resizable_stack 64) "resizable");
          Alcotest.test_case "linked" `Slow
            (sweep_fib (R.System.Linked_stack 128) "linked");
          Alcotest.test_case "bounded, 2 workers" `Slow
            (sweep_fib ~workers:2 (R.System.Bounded_stack 4096)
               "bounded/2 workers");
          Alcotest.test_case "resizable, 2 workers" `Slow
            (sweep_fib ~workers:2 (R.System.Resizable_stack 64)
               "resizable/2 workers");
          Alcotest.test_case "linked, 2 workers" `Slow
            (sweep_fib ~workers:2 (R.System.Linked_stack 128)
               "linked/2 workers");
          Alcotest.test_case "repeated failures (bounded)" `Slow
            (sweep_fib_repeated (R.System.Bounded_stack 4096) "bounded");
          Alcotest.test_case "repeated failures (linked)" `Slow
            (sweep_fib_repeated (R.System.Linked_stack 128) "linked");
          (* The same sweeps on a coalescing device: every crash point must
             still recover to the same answers, with pending lines dying at
             the crash like any dirty line. *)
          Alcotest.test_case "bounded, coalesced flushing" `Slow
            (sweep_fib ~flush_mode:Pmem.Coalesced (R.System.Bounded_stack 4096)
               "bounded/coalesced");
          Alcotest.test_case "repeated failures (bounded, coalesced)" `Slow
            (sweep_fib_repeated ~flush_mode:Pmem.Coalesced
               (R.System.Bounded_stack 4096) "bounded/coalesced");
        ] );
      ( "flush coalescing (device)",
        [
          Alcotest.test_case "pending line lost at crash" `Quick
            test_pending_lost_at_crash;
          Alcotest.test_case "drained line survives crash" `Quick
            test_drained_line_survives_crash;
          Alcotest.test_case "dependent read drains" `Quick
            test_dependent_read_drains;
          Alcotest.test_case "repeated flushes coalesce" `Quick
            test_repeated_flushes_coalesce;
        ] );
      ( "transactional for-loop (Appendix A)",
        [
          Alcotest.test_case "baseline" `Quick test_txn_baseline;
          Alcotest.test_case "crash-point sweep" `Slow test_txn_crash_sweep;
          Alcotest.test_case "unbounded stacks" `Slow test_txn_unbounded_stacks;
        ] );
      ( "individual crash-recovery (Section 2.2)",
        [
          Alcotest.test_case "kill-point sweep" `Slow test_individual_kill_sweep;
          Alcotest.test_case "random kills" `Quick test_individual_kill_random;
          Alcotest.test_case "kill then system crash" `Quick
            test_individual_kill_then_system_crash;
        ] );
      ( "cache-loss adversary",
        [ Alcotest.test_case "fib under Lose_random" `Slow test_fib_lose_random ]
      );
    ]
