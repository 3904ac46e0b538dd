(* Quickstart: a recoverable counter on simulated NVRAM.

   This walks the whole public API in one file:

   1. create a simulated persistent-memory device;
   2. create a system (persistent stacks + heap + task table);
   3. register a recoverable operation (fetch-and-increment built on the
      recoverable CAS of Section 5);
   4. submit tasks and run the workers (as seeded fibers, so the output
      is the same on every run);
   5. crash the machine mid-run, restart, recover, finish;
   6. inspect the persistent stack bytes (the paper's Fig. 2 layout).

   Run with: dune exec examples/quickstart.exe *)

module Pmem = Nvram.Pmem
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module System = Runtime.System
module Rcas = Recoverable.Rcas

let attempt_id = 11
let increment_id = 13

let () =
  (* 1. The device: 1 MiB, auto-flush (no volatile cache, as the CAS
     algorithm of Section 5 assumes). *)
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in

  (* 2-3. A registry with the recoverable increment, bound to a register
     we allocate from the persistent heap below.  The [handle] indirection
     lets us rebind after a restart. *)
  let registry = Runtime.Registry.create () in
  let counter = ref None in
  let handle () = Option.get !counter in
  Recoverable.Cas_op.register_attempt registry ~id:attempt_id handle;
  Recoverable.Cas_op.register_increment registry ~id:increment_id
    ~attempt_id handle;

  let config = { System.default_config with workers = 2 } in
  let increments = 20 in

  (* 4-5. Drive to completion with one simulated power failure.  The
     driver runs create/init/submit, then normal mode; on the crash it
     reboots the device, re-attaches, recovers and resumes.  It runs the
     workers as seeded [Runtime.Coop] fibers, so everything printed below
     is the same on every run. *)
  let report =
    Runtime.Driver.run_to_completion pmem ~registry ~config
      ~init:(fun sys ->
        let base = Heap.alloc (System.heap sys) (Rcas.region_size ~nprocs:2) in
        counter :=
          Some (Rcas.create pmem ~base ~nprocs:2 ~init:0 ~variant:Rcas.Correct);
        System.set_root sys base)
      ~reattach:(fun sys ->
        let base = Option.get (System.root sys) in
        counter := Some (Rcas.attach pmem ~base ~nprocs:2 ~variant:Rcas.Correct))
      ~submit:(fun sys ->
        for _ = 1 to increments do
          ignore (System.submit sys ~func_id:increment_id ~args:Bytes.empty)
        done)
      ~plan:(fun ~era -> if era = 1 then Crash.At_op 400 else Crash.Never)
      ()
  in

  Printf.printf "ran %d increments across %d crash(es), %d era(s)\n" increments
    report.Runtime.Driver.crashes report.Runtime.Driver.eras;
  Printf.printf "counter value: %d (expected %d)\n" (Rcas.read (handle ()))
    increments;
  assert (Rcas.read (handle ()) = increments);

  (* Every task's answer was persisted in the task table: the answers are
     a permutation of 1..20 — each increment applied exactly once even
     though a crash interrupted the run. *)
  let answers =
    List.sort compare
      (List.map (fun (_, a) -> Int64.to_int a) report.Runtime.Driver.results)
  in
  assert (answers = List.init increments (fun i -> i + 1));
  Printf.printf "answers (sorted): %s\n"
    (String.concat " " (List.map string_of_int answers));

  (* 6. Look at worker 0's persistent stack, Fig. 2-style: after completion
     only the dummy frame remains, marked as the stack end; everything
     after it is invalid data. *)
  print_endline "worker 0 stack layout after completion:";
  let sys_view = System.attach pmem ~registry in
  let (Runtime.Exec.Stack ((module S), s)) =
    (System.ctx sys_view 0).Runtime.Exec.stack
  in
  (* the stack is empty, so its top frame is the dummy at the stack base *)
  let base = S.top_offset s in
  print_endline
    (Pstack.Dump.render
       (Pstack.Dump.scan_region pmem ~view:Pstack.Dump.Persistent ~base));
  print_endline "quickstart: OK"
