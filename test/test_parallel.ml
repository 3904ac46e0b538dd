(* True-concurrency stress tests for the striped device and the
   domain-based runtime.

   Workers are real domains (one runtime lock each), so these tests
   exercise the striped Pmem lock under genuine parallelism: disjoint-line
   writers and flushers must not serialise incorrectly or corrupt each
   other, a crash during a parallel flush storm must never tear a cache
   line, and seeded crash schedules must replay identically after
   [Crash.reset]. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module R = Runtime

let off = Offset.of_int
let line = 64

(* Spawn [n] domains running [body i] and join them all; re-raises the
   first failure after every domain stopped. *)
let in_domains n body =
  let doms = List.init n (fun i -> Domain.spawn (fun () -> body i)) in
  let failures =
    List.filter_map
      (fun d -> match Domain.join d with
        | () -> None
        | exception exn -> Some exn)
      doms
  in
  match failures with [] -> () | exn :: _ -> raise exn

(* ------------------------------------------------------------------ *)
(* Parallel writers and flushers on disjoint lines                     *)

let test_disjoint_writers () =
  let workers = 4 and lines_per_worker = 8 and rounds = 50 in
  let pmem = Pmem.create ~size:(workers * lines_per_worker * line) () in
  in_domains workers (fun w ->
      for r = 1 to rounds do
        for l = 0 to lines_per_worker - 1 do
          let at = ((w * lines_per_worker) + l) * line in
          let b = (w + l + r) land 0xFF in
          Pmem.write_bytes pmem ~off:(off at) (Bytes.make line (Char.chr b));
          Pmem.flush pmem ~off:(off at) ~len:line
        done
      done);
  Alcotest.(check int) "all flushed" 0 (Pmem.dirty_line_count pmem);
  for w = 0 to workers - 1 do
    for l = 0 to lines_per_worker - 1 do
      let at = ((w * lines_per_worker) + l) * line in
      let expect = Bytes.make line (Char.chr ((w + l + rounds) land 0xFF)) in
      Alcotest.(check bytes)
        (Printf.sprintf "persistent line of worker %d" w)
        expect
        (Pmem.peek_persistent pmem ~off:(off at) ~len:line)
    done
  done

let test_dirty_count_under_parallelism () =
  (* phase 1: every worker dirties its own lines without flushing — the
     dirty count must equal exactly the number of written lines; phase 2:
     parallel flushes must drain it to zero *)
  let workers = 4 and lines_per_worker = 16 in
  let pmem = Pmem.create ~size:(workers * lines_per_worker * line) () in
  in_domains workers (fun w ->
      for l = 0 to lines_per_worker - 1 do
        let at = ((w * lines_per_worker) + l) * line in
        Pmem.write_byte pmem (off at) (w + 1)
      done);
  Alcotest.(check int) "every written line dirty"
    (workers * lines_per_worker)
    (Pmem.dirty_line_count pmem);
  in_domains workers (fun w ->
      for l = 0 to lines_per_worker - 1 do
        let at = ((w * lines_per_worker) + l) * line in
        Pmem.flush pmem ~off:(off at) ~len:1
      done);
  Alcotest.(check int) "drained" 0 (Pmem.dirty_line_count pmem)

(* ------------------------------------------------------------------ *)
(* Crash during a parallel flush storm: line-flush atomicity            *)

let test_crash_during_parallel_flush () =
  (* each worker repeatedly fills its own line with a uniform byte and
     flushes it while a seeded random crash plan is armed; whenever the
     crash fires, the persistent image of every line must be uniform —
     a torn line would mean a flush stopped halfway through a line *)
  let workers = 4 in
  List.iter
    (fun seed ->
      let pmem = Pmem.create ~size:(workers * line) () in
      Crash.arm (Pmem.crash_ctl pmem)
        (Crash.Random { seed; probability = 0.005 });
      in_domains workers (fun w ->
          try
            for r = 1 to 2000 do
              let b = Char.chr (((w * 50) + r) land 0xFF) in
              Pmem.write_bytes pmem ~off:(off (w * line)) (Bytes.make line b);
              Pmem.flush pmem ~off:(off (w * line)) ~len:line
            done
          with Crash.Crash_now -> ());
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: crash fired" seed)
        true
        (Crash.crashed (Pmem.crash_ctl pmem));
      Pmem.crash_and_restart pmem;
      for w = 0 to workers - 1 do
        let img = Pmem.peek_persistent pmem ~off:(off (w * line)) ~len:line in
        let first = Bytes.get img 0 in
        Bytes.iter
          (fun c ->
            if c <> first then
              Alcotest.failf "seed %d: torn line for worker %d" seed w)
          img
      done)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Seeded crash schedules replay identically after reset               *)

let plan = Crash.Random { seed = 42; probability = 0.01 }

let ops_until_crash ctl =
  Crash.arm ctl plan;
  let n = ref 0 in
  (try
     while true do
       Crash.step ctl;
       incr n
     done
   with Crash.Crash_now -> ());
  !n

let test_seeded_schedule_replays () =
  let ctl = Crash.create () in
  let first = ops_until_crash ctl in
  Alcotest.(check bool) "plan fires eventually" true (first > 0);
  Crash.reset ctl;
  Alcotest.(check int) "identical schedule after reset" first
    (ops_until_crash ctl);
  (* resetting mid-schedule must also replay from the seed, not resume *)
  Crash.reset ctl;
  Crash.arm ctl plan;
  for _ = 1 to first / 2 do
    Crash.step ctl
  done;
  Crash.reset ctl;
  Alcotest.(check int) "replay after partial run" first (ops_until_crash ctl)

let kill_plan = Crash.Random { seed = 7; probability = 0.02 }

let ops_until_kill ctl =
  Crash.arm_kill ctl kill_plan;
  let n = ref 0 in
  (try
     while true do
       Crash.step ctl;
       incr n
     done
   with Crash.Thread_killed -> ());
  !n

let test_seeded_kill_schedule_replays () =
  let ctl = Crash.create () in
  let first = ops_until_kill ctl in
  Alcotest.(check bool) "kill fires eventually" true (first > 0);
  Alcotest.(check int) "one kill fired" 1 (Crash.kills_fired ctl);
  Crash.reset ctl;
  Alcotest.(check int) "kill tally cleared" 0 (Crash.kills_fired ctl);
  Alcotest.(check int) "identical kill schedule after reset" first
    (ops_until_kill ctl)

(* ------------------------------------------------------------------ *)
(* Worker failure aggregation                                          *)

let failing_id = 20

let register_failing registry =
  R.Registry.register registry ~id:failing_id ~name:"failing"
    ~body:(fun _ctx args ->
      failwith (Printf.sprintf "task %d" (R.Value.to_int args)))
    ~recover:
      (R.Registry.completing (fun _ctx args ->
           failwith (Printf.sprintf "task %d" (R.Value.to_int args))))

let failing_system ~workers ~tasks =
  let registry = R.Registry.create () in
  register_failing registry;
  let pmem = Pmem.create ~size:(1 lsl 20) () in
  let sys =
    R.System.create pmem ~registry
      ~config:
        {
          R.System.workers;
          stack_kind = R.System.Bounded_stack 4096;
          task_capacity = 8;
          task_max_args = 16;
        }
  in
  for n = 1 to tasks do
    ignore (R.System.submit sys ~func_id:failing_id ~args:(R.Value.of_int n))
  done;
  sys

let test_all_failures_reported () =
  (* every worker pops one poisoned task and dies; the aggregate must
     carry all of them, not just the lowest-indexed worker's *)
  let sys = failing_system ~workers:3 ~tasks:3 in
  match R.System.run sys with
  | `Completed | `Crashed -> Alcotest.fail "expected worker failures"
  | exception R.System.Worker_failures failures ->
      Alcotest.(check (list int)) "all workers reported" [ 0; 1; 2 ]
        (List.sort compare (List.map fst failures));
      List.iter
        (fun (_, exn) ->
          match exn with
          | Failure _ -> ()
          | exn ->
              Alcotest.failf "unexpected failure kind: %s"
                (Printexc.to_string exn))
        failures

let test_single_failure_raised_as_itself () =
  let sys = failing_system ~workers:1 ~tasks:1 in
  match R.System.run sys with
  | `Completed | `Crashed -> Alcotest.fail "expected a worker failure"
  | exception Failure _ -> ()
  | exception exn ->
      Alcotest.failf "expected bare Failure, got %s" (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Multi-domain end-to-end smoke                                       *)

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

let test_multi_domain_fib () =
  let registry = R.Registry.create () in
  register_fib registry;
  let pmem = Pmem.create ~size:(1 lsl 21) () in
  let sys =
    R.System.create pmem ~registry
      ~config:
        {
          R.System.workers = 4;
          stack_kind = R.System.Bounded_stack 4096;
          task_capacity = 8;
          task_max_args = 16;
        }
  in
  List.iter
    (fun n -> ignore (R.System.submit sys ~func_id:fib_id ~args:(R.Value.of_int n)))
    [ 5; 6; 7; 8; 9; 10 ];
  (match R.System.run sys with
  | `Completed -> ()
  | `Crashed -> Alcotest.fail "no crash was armed");
  let results =
    List.map (fun (i, a) -> (i, Option.get a)) (R.System.results sys)
  in
  Alcotest.(check (list (pair int int64)))
    "fib answers"
    [ (0, 5L); (1, 8L); (2, 13L); (3, 21L); (4, 34L); (5, 55L) ]
    results

let () =
  Alcotest.run "parallel"
    [
      ( "striped-device",
        [
          Alcotest.test_case "disjoint writers+flushers" `Quick
            test_disjoint_writers;
          Alcotest.test_case "dirty count under parallelism" `Quick
            test_dirty_count_under_parallelism;
          Alcotest.test_case "crash during parallel flush" `Quick
            test_crash_during_parallel_flush;
        ] );
      ( "crash-schedules",
        [
          Alcotest.test_case "seeded schedule replays after reset" `Quick
            test_seeded_schedule_replays;
          Alcotest.test_case "seeded kill schedule replays after reset" `Quick
            test_seeded_kill_schedule_replays;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "all worker failures reported" `Quick
            test_all_failures_reported;
          Alcotest.test_case "single failure raised as itself" `Quick
            test_single_failure_raised_as_itself;
          Alcotest.test_case "multi-domain fib" `Quick test_multi_domain_fib;
        ] );
    ]
