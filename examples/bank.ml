(* Recoverable money transfers — a realistic application of the runtime.

   Accounts are recoverable CAS registers; a transfer is the two-phase
   recoverable operation of [Apps.Bank] (withdraw refusing to overdraw,
   then deposit), whose recovery resumes from exactly the phase that
   completed.  The demo runs random transfers over 4 accounts with 4
   workers under simulated power failures, then checks the books: total
   balance conserved, no negative balances, and the reported successes
   replay to the final balances — every transfer applied exactly once.

   Run with: dune exec examples/bank.exe *)

module Pmem = Nvram.Pmem
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module System = Runtime.System
module Value = Runtime.Value
module Bank = Apps.Bank

let n_accounts = 4
let initial_balance = 1000
let n_transfers = 120
let workers = 4

let () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 21) () in
  let registry = Runtime.Registry.create () in
  let accounts = ref None in
  Bank.register registry (fun () -> Option.get !accounts);
  let config =
    {
      System.workers;
      stack_kind = System.Bounded_stack 4096;
      task_capacity = n_transfers;
      task_max_args = 32;
    }
  in
  let rng = Random.State.make [| 2026 |] in
  let plans =
    List.init n_transfers (fun _ ->
        let src = Random.State.int rng n_accounts in
        let dst =
          (src + 1 + Random.State.int rng (n_accounts - 1)) mod n_accounts
        in
        let amount = 1 + Random.State.int rng 400 in
        (src, dst, amount))
  in
  let report =
    Runtime.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base =
          Heap.alloc (System.heap sys)
            (Bank.region_size ~n_accounts ~nprocs:workers)
        in
        accounts :=
          Some
            (Bank.create pmem ~base ~n_accounts ~nprocs:workers
               ~initial_balance);
        System.set_root sys base)
      ~reattach:(fun sys ->
        accounts :=
          Some
            (Bank.attach pmem
               ~base:(Option.get (System.root sys))
               ~n_accounts ~nprocs:workers))
      ~reclaim:(fun sys -> Option.to_list (System.root sys))
      ~submit:(fun sys ->
        List.iter
          (fun (src, dst, amount) ->
            ignore
              (System.submit sys ~func_id:Bank.transfer_id
                 ~args:(Value.of_int3 src dst amount)))
          plans)
      ~plan:(fun ~era ->
        if era <= 14 then Crash.Random { seed = era * 13; probability = 0.004 }
        else Crash.Never)
      ()
  in
  let bank = Option.get !accounts in
  let balances = Bank.balances bank in
  let succeeded =
    List.filter (fun (_, a) -> Int64.equal a 1L) report.Runtime.Driver.results
  in
  Printf.printf "%d transfers (%d succeeded, %d refused), %d crashes\n"
    n_transfers (List.length succeeded)
    (n_transfers - List.length succeeded)
    report.Runtime.Driver.crashes;
  Printf.printf "final balances: %s (total %d)\n"
    (String.concat " " (List.map string_of_int balances))
    (List.fold_left ( + ) 0 balances);
  (* the books must balance *)
  assert (List.fold_left ( + ) 0 balances = n_accounts * initial_balance);
  assert (List.for_all (fun b -> b >= 0) balances);
  (* replay the reported successes sequentially: per-account conservation
     must reproduce the final balances *)
  let replay = Array.make n_accounts initial_balance in
  List.iter2
    (fun (src, dst, amount) (_, answer) ->
      if Int64.equal answer 1L then begin
        replay.(src) <- replay.(src) - amount;
        replay.(dst) <- replay.(dst) + amount
      end)
    plans report.Runtime.Driver.results;
  assert (Array.to_list replay = balances);
  print_endline "bank: OK (books balance across crashes)"
