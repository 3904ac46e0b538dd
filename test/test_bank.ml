(* Crash-point sweeps of the bank application (Apps.Bank): money is
   conserved and every transfer applies exactly once for every crash
   point, including crashes that land between the withdraw and deposit
   phases — the window the two-phase recover protocol must close. *)

module Pmem = Nvram.Pmem
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module R = Runtime
module Bank = Apps.Bank

let n_accounts = 3
let initial_balance = 100
let workers = 1

(* a deterministic plan with refusals and chains *)
let plans = [ (0, 1, 60); (0, 1, 60) (* refused: only 40 left *); (1, 2, 90); (2, 0, 30) ]

let expected_answers = [ 1L; 0L; 1L; 1L ]
let expected_balances = [ 70; 70; 160 ]

let run_with plan =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
  let registry = R.Registry.create () in
  let accounts = ref None in
  Bank.register registry (fun () -> Option.get !accounts);
  let config =
    {
      R.System.workers;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = List.length plans;
      task_max_args = 32;
    }
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base =
          Heap.alloc (R.System.heap sys)
            (Bank.region_size ~n_accounts ~nprocs:workers)
        in
        accounts :=
          Some (Bank.create pmem ~base ~n_accounts ~nprocs:workers ~initial_balance);
        R.System.set_root sys base)
      ~reattach:(fun sys ->
        accounts :=
          Some
            (Bank.attach pmem
               ~base:(Option.get (R.System.root sys))
               ~n_accounts ~nprocs:workers))
      ~reclaim:(fun sys -> Option.to_list (R.System.root sys))
      ~submit:(fun sys ->
        List.iter
          (fun (src, dst, amount) ->
            ignore
              (R.System.submit sys ~func_id:Bank.transfer_id
                 ~args:(R.Value.of_int3 src dst amount)))
          plans)
      ~plan ()
  in
  (List.map snd report.R.Driver.results, Bank.balances (Option.get !accounts))

let test_baseline () =
  let answers, balances = run_with (fun ~era:_ -> Crash.Never) in
  Alcotest.(check (list int64)) "answers" expected_answers answers;
  Alcotest.(check (list int)) "balances" expected_balances balances

let test_crash_sweep () =
  (* single worker makes the task order (and thus the expected outcome)
     deterministic for every crash point *)
  for p = 1 to 280 do
    let answers, balances =
      run_with (fun ~era -> if era = 1 then Crash.At_op p else Crash.Never)
    in
    if answers <> expected_answers || balances <> expected_balances then
      Alcotest.failf "crash at op %d: answers [%s] balances [%s]" p
        (String.concat ";" (List.map Int64.to_string answers))
        (String.concat ";" (List.map string_of_int balances))
  done

let test_repeated_crashes () =
  List.iter
    (fun stride ->
      let answers, balances =
        run_with (fun ~era ->
            if era <= 15 then Crash.At_op (stride + (11 * era)) else Crash.Never)
      in
      Alcotest.(check (list int64))
        (Printf.sprintf "answers (stride %d)" stride)
        expected_answers answers;
      Alcotest.(check (list int))
        (Printf.sprintf "balances (stride %d)" stride)
        expected_balances balances)
    [ 13; 31; 67 ]

(* 4 workers, seeded random transfers and seeded random crash plans,
   run by the driver's default scheduler.  Returns the transfers, the
   driver's report and the final balances. *)
let run_concurrent () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 21) () in
  let registry = R.Registry.create () in
  let accounts = ref None in
  Bank.register registry (fun () -> Option.get !accounts);
  let workers = 4 and n_accounts = 4 and n_transfers = 60 in
  let config =
    {
      R.System.workers;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = n_transfers;
      task_max_args = 32;
    }
  in
  let rng = Random.State.make [| 99 |] in
  let plans =
    List.init n_transfers (fun _ ->
        let src = Random.State.int rng n_accounts in
        let dst = (src + 1) mod n_accounts in
        (src, dst, 1 + Random.State.int rng 150))
  in
  let report =
    R.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base =
          Heap.alloc (R.System.heap sys)
            (Bank.region_size ~n_accounts ~nprocs:workers)
        in
        accounts :=
          Some
            (Bank.create pmem ~base ~n_accounts ~nprocs:workers
               ~initial_balance:500);
        R.System.set_root sys base)
      ~reattach:(fun sys ->
        accounts :=
          Some
            (Bank.attach pmem
               ~base:(Option.get (R.System.root sys))
               ~n_accounts ~nprocs:workers))
      ~submit:(fun sys ->
        List.iter
          (fun (src, dst, amount) ->
            ignore
              (R.System.submit sys ~func_id:Bank.transfer_id
                 ~args:(R.Value.of_int3 src dst amount)))
          plans)
      ~plan:(fun ~era ->
        if era <= 10 then Crash.Random { seed = era; probability = 0.005 }
        else Crash.Never)
      ()
  in
  (plans, report, Bank.balances (Option.get !accounts))

let test_conservation_concurrent () =
  let plans, report, balances = run_concurrent () in
  let n_accounts = List.length balances in
  Alcotest.(check int) "total conserved" (4 * 500)
    (List.fold_left ( + ) 0 balances);
  Alcotest.(check bool) "no overdrafts" true (List.for_all (fun b -> b >= 0) balances);
  (* the reported successes replay to the final balances *)
  let replay = Array.make n_accounts 500 in
  List.iter2
    (fun (src, dst, amount) (_, answer) ->
      if Int64.equal answer 1L then begin
        replay.(src) <- replay.(src) - amount;
        replay.(dst) <- replay.(dst) + amount
      end)
    plans report.R.Driver.results;
  Alcotest.(check (list int)) "successes replay" balances
    (Array.to_list replay)

(* The same workload twice gives the same run: every worker interleaving
   and crash point is a function of the seeds, not of OS timing. *)
let test_concurrent_replays () =
  let _, a, balances_a = run_concurrent () in
  let _, b, balances_b = run_concurrent () in
  Alcotest.(check (list (pair int int64)))
    "results" a.R.Driver.results b.R.Driver.results;
  Alcotest.(check int) "eras" a.R.Driver.eras b.R.Driver.eras;
  Alcotest.(check int) "crashes" a.R.Driver.crashes b.R.Driver.crashes;
  Alcotest.(check bool) "crashed" true (a.R.Driver.crashes > 0);
  Alcotest.(check (list int)) "balances" balances_a balances_b

let () =
  Alcotest.run "bank"
    [
      ( "two-phase transfers",
        [
          Alcotest.test_case "baseline" `Quick test_baseline;
          Alcotest.test_case "crash-point sweep" `Slow test_crash_sweep;
          Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
          Alcotest.test_case "concurrent conservation" `Quick
            test_conservation_concurrent;
          Alcotest.test_case "concurrent run replays" `Quick
            test_concurrent_replays;
        ] );
    ]
