(* Tests for the recoverable CAS (Attiya, Ben-Baruch, Hendler; ref. [8] of
   the paper): sequential semantics, evidence-based recovery, the exact
   planted bug of Section 5.2, and the runtime bindings. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module Rcas = Recoverable.Rcas
module Cas_op = Recoverable.Cas_op
module R = Runtime

let off = Offset.of_int

let fresh ?(nprocs = 4) ?(init = 0) ?(variant = Rcas.Correct) () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 16) () in
  let t = Rcas.create pmem ~base:(off 64) ~nprocs ~init ~variant in
  (pmem, t)

let test_read_initial () =
  let _, t = fresh ~init:42 () in
  Alcotest.(check int) "initial value" 42 (Rcas.read t);
  let owner, seq = Rcas.owner t in
  Alcotest.(check int) "initial owner sentinel" 255 owner;
  Alcotest.(check int) "initial seq" 0 seq

let test_cas_semantics () =
  let _, t = fresh ~init:5 () in
  Alcotest.(check bool) "matching succeeds" true
    (Rcas.cas t ~pid:0 ~expected:5 ~desired:6);
  Alcotest.(check int) "applied" 6 (Rcas.read t);
  Alcotest.(check bool) "mismatch fails" false
    (Rcas.cas t ~pid:1 ~expected:5 ~desired:7);
  Alcotest.(check int) "not applied" 6 (Rcas.read t);
  Alcotest.(check bool) "same old=new allowed" true
    (Rcas.cas t ~pid:2 ~expected:6 ~desired:6);
  Alcotest.(check int) "value unchanged" 6 (Rcas.read t)

let test_negative_values () =
  let _, t = fresh ~init:(-100_000) () in
  Alcotest.(check int) "negative initial" (-100_000) (Rcas.read t);
  Alcotest.(check bool) "negative cas" true
    (Rcas.cas t ~pid:0 ~expected:(-100_000) ~desired:(-1));
  Alcotest.(check int) "negative applied" (-1) (Rcas.read t)

let test_sequence_is_persistent () =
  let pmem, t = fresh () in
  ignore (Rcas.bump t ~pid:2);
  ignore (Rcas.bump t ~pid:2);
  Pmem.crash_and_restart pmem;
  let t = Rcas.attach pmem ~base:(off 64) ~nprocs:4 ~variant:Rcas.Correct in
  Alcotest.(check int) "sequence survives crash" 2 (Rcas.sequence t ~pid:2);
  ignore t

let test_announcement_records_overwrite () =
  let _, t = fresh ~init:0 () in
  Alcotest.(check bool) "p0 installs" true
    (Rcas.cas t ~pid:0 ~expected:0 ~desired:1);
  let s0 = Rcas.sequence t ~pid:0 in
  Alcotest.(check bool) "p1 overwrites" true
    (Rcas.cas t ~pid:1 ~expected:1 ~desired:2);
  Alcotest.(check int) "p1 announced overwriting p0's value" s0
    (Rcas.announcement t ~writer:0 ~overwriter:1)

(* The heart of Section 5: recovery evidence.  Scenario — the crash hits
   after p's CAS was installed AND another process overwrote it.  The
   correct variant proves linearization through the announcement matrix;
   the buggy variant (matrix removed) re-executes and reports failure: the
   planted bug, deterministically. *)
let test_evidence_after_overwrite () =
  let run variant =
    let _, t = fresh ~init:0 ~variant () in
    let seq = Rcas.bump t ~pid:0 in
    Alcotest.(check bool) "p0 installs" true
      (Rcas.cas_with_seq t ~pid:0 ~seq ~expected:0 ~desired:1);
    Alcotest.(check bool) "p1 overwrites" true
      (Rcas.cas t ~pid:1 ~expected:1 ~desired:2);
    (* crash here; p0's recovery asks about its interrupted attempt *)
    Rcas.recover_with_seq t ~pid:0 ~seq ~expected:0 ~desired:1
  in
  Alcotest.(check bool) "correct variant proves success" true (run Rcas.Correct);
  Alcotest.(check bool) "buggy variant loses the success" false (run Rcas.Buggy)

let test_evidence_value_still_installed () =
  (* When C still holds p's tag, both variants find the evidence. *)
  List.iter
    (fun variant ->
      let _, t = fresh ~init:0 ~variant () in
      let seq = Rcas.bump t ~pid:0 in
      Alcotest.(check bool) "install" true
        (Rcas.cas_with_seq t ~pid:0 ~seq ~expected:0 ~desired:1);
      Alcotest.(check bool) "evidence in C" true (Rcas.evidence t ~pid:0 ~seq);
      Alcotest.(check bool) "recover returns true" true
        (Rcas.recover_with_seq t ~pid:0 ~seq ~expected:0 ~desired:1))
    [ Rcas.Correct; Rcas.Buggy ]

let test_recover_reexecutes_uninstalled () =
  let _, t = fresh ~init:0 () in
  let seq = Rcas.bump t ~pid:0 in
  Alcotest.(check bool) "no evidence" false (Rcas.evidence t ~pid:0 ~seq);
  Alcotest.(check bool) "re-execution succeeds" true
    (Rcas.recover_with_seq t ~pid:0 ~seq ~expected:0 ~desired:1);
  Alcotest.(check int) "applied once" 1 (Rcas.read t);
  (* recovery is idempotent under repeated failures *)
  Alcotest.(check bool) "re-recovery still true" true
    (Rcas.recover_with_seq t ~pid:0 ~seq ~expected:0 ~desired:1);
  Alcotest.(check int) "not applied twice" 1 (Rcas.read t)

let test_packing_limits () =
  let _, t = fresh () in
  Alcotest.(check bool) "32-bit max ok" true
    (Rcas.cas t ~pid:0 ~expected:0 ~desired:Rcas.max_value);
  Alcotest.check_raises "value too large"
    (Invalid_argument
       (Printf.sprintf "Rcas: value %d out of packing range"
          (Rcas.max_value + 1)))
    (fun () ->
      ignore
        (Rcas.cas t ~pid:0 ~expected:Rcas.max_value
           ~desired:(Rcas.max_value + 1)));
  Alcotest.check_raises "bad pid" (Invalid_argument "Rcas: pid 9 out of 0..3")
    (fun () -> ignore (Rcas.cas t ~pid:9 ~expected:0 ~desired:1))

let test_concurrent_cas_chain () =
  (* Several threads CAS 0->1->2->...; exactly one success per value. *)
  let _, t = fresh ~init:0 ~nprocs:4 () in
  let wins = Array.make 4 0 in
  let threads =
    List.init 4 (fun pid ->
        Thread.create
          (fun () ->
            for v = 0 to 199 do
              if Rcas.cas t ~pid ~expected:v ~desired:(v + 1) then
                wins.(pid) <- wins.(pid) + 1
            done)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "final value" 200 (Rcas.read t);
  Alcotest.(check int) "exactly 200 wins" 200 (Array.fold_left ( + ) 0 wins)

(* ------------------------------------------------------------------ *)
(* Runtime bindings                                                    *)

let attempt_id = 11
let cas_id = 12
let incr_id = 13
let write_id = 14

let make_bound_system ?(variant = Rcas.Correct) ?(init = 0) () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
  let registry = R.Registry.create () in
  let rcas = ref None in
  let handle () = Option.get !rcas in
  Cas_op.register_attempt registry ~id:attempt_id handle;
  Cas_op.register_cas registry ~id:cas_id ~attempt_id handle;
  Cas_op.register_increment registry ~id:incr_id ~attempt_id handle;
  Cas_op.register_write registry ~id:write_id ~attempt_id handle;
  let config = { R.System.default_config with workers = 2 } in
  let sys = R.System.create pmem ~registry ~config in
  let nprocs = 2 in
  let base = Heap.alloc (R.System.heap sys) (Rcas.region_size ~nprocs) in
  rcas := Some (Rcas.create pmem ~base ~nprocs ~init ~variant);
  (pmem, sys, handle)

let test_cas_op_via_runtime () =
  let _, sys, handle = make_bound_system ~init:3 () in
  let ctx = R.System.ctx sys 0 in
  Alcotest.(check bool) "cas success" true
    (R.Value.bool_of_answer
       (R.Exec.call ctx ~func_id:cas_id ~args:(R.Value.of_int2 3 4)));
  Alcotest.(check bool) "cas failure" false
    (R.Value.bool_of_answer
       (R.Exec.call ctx ~func_id:cas_id ~args:(R.Value.of_int2 3 9)));
  Alcotest.(check int) "value" 4 (Rcas.read (handle ()))

let test_increment_op () =
  let _, sys, handle = make_bound_system ~init:0 () in
  let ctx = R.System.ctx sys 0 in
  for i = 1 to 5 do
    Alcotest.(check int64) "incr result" (Int64.of_int i)
      (R.Exec.call ctx ~func_id:incr_id ~args:Bytes.empty)
  done;
  Alcotest.(check int) "counter" 5 (Rcas.read (handle ()))

let test_write_op () =
  let _, sys, handle = make_bound_system ~init:0 () in
  let ctx = R.System.ctx sys 0 in
  ignore (R.Exec.call ctx ~func_id:write_id ~args:(R.Value.of_int 77));
  Alcotest.(check int) "written" 77 (Rcas.read (handle ()))

let test_attempt_answer_packing () =
  List.iter
    (fun (success, desired) ->
      let packed = Cas_op.pack_attempt_answer ~success ~desired in
      Alcotest.(check bool) "success bit" success
        (Cas_op.attempt_succeeded packed);
      Alcotest.(check int) "desired" desired (Cas_op.attempt_desired packed))
    [ (true, 5); (false, 5); (true, -5); (false, 0); (true, Rcas.max_value) ]

(* Exhaustive crash-point sweep of two chained recoverable CAS operations
   driven through the full system: for every crash point the final state
   and the reported answers must respect exactly-once semantics. *)
let test_cas_crash_sweep () =
  let run_with plan =
    let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
    let registry = R.Registry.create () in
    let rcas = ref None in
    let handle () = Option.get !rcas in
    Cas_op.register_attempt registry ~id:attempt_id handle;
    Cas_op.register_cas registry ~id:cas_id ~attempt_id handle;
    let config =
      {
        R.System.workers = 1;
        stack_kind = R.System.Bounded_stack 4096;
        task_capacity = 2;
        task_max_args = 16;
      }
    in
    let report =
      R.Driver.run_to_completion pmem ~registry ~config
        ~init:(fun sys ->
          let base =
            Heap.alloc (R.System.heap sys) (Rcas.region_size ~nprocs:1)
          in
          rcas :=
            Some
              (Rcas.create pmem ~base ~nprocs:1 ~init:0 ~variant:Rcas.Correct);
          R.System.set_root sys base)
        ~reattach:(fun sys ->
          let base = Option.get (R.System.root sys) in
          rcas := Some (Rcas.attach pmem ~base ~nprocs:1 ~variant:Rcas.Correct))
        ~submit:(fun sys ->
          ignore
            (R.System.submit sys ~func_id:cas_id ~args:(R.Value.of_int2 0 1));
          ignore
            (R.System.submit sys ~func_id:cas_id ~args:(R.Value.of_int2 1 2)))
        ~plan ()
    in
    (report, Rcas.read (handle ()))
  in
  let report, final = run_with (fun ~era:_ -> Crash.Never) in
  Alcotest.(check int) "no crashes" 0 report.R.Driver.crashes;
  Alcotest.(check int) "final value" 2 final;
  List.iter
    (fun (_, a) ->
      Alcotest.(check bool) "success" true (R.Value.bool_of_answer a))
    report.R.Driver.results;
  for p = 1 to 300 do
    let report, final =
      run_with (fun ~era -> if era = 1 then Crash.At_op p else Crash.Never)
    in
    if final <> 2 then
      Alcotest.failf "crash at %d: final %d (exactly-once violated)" p final;
    List.iter
      (fun (i, a) ->
        if not (R.Value.bool_of_answer a) then
          Alcotest.failf "crash at %d: task %d reported failure" p i)
      report.R.Driver.results
  done


(* ------------------------------------------------------------------ *)
(* Test-and-set, fetch-and-add, swap                                   *)

let tas_id = 15
let tas_attempt_id = 16
let fadd_id = 17
let swap_id = 18
let fetch_attempt_id = 19

let make_full_system () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
  let registry = R.Registry.create () in
  let rcas = ref None in
  let handle () = Option.get !rcas in
  let rtas = ref None in
  let tas_handle () = Option.get !rtas in
  Cas_op.register_attempt registry ~id:attempt_id handle;
  Cas_op.register_fetch_add registry ~id:fadd_id ~attempt_id handle;
  Cas_op.register_fetch_attempt registry ~id:fetch_attempt_id handle;
  Cas_op.register_swap registry ~id:swap_id ~fetch_attempt_id handle;
  Cas_op.register_tas registry ~id:tas_id ~attempt_id:tas_attempt_id tas_handle;
  let config = { R.System.default_config with workers = 2 } in
  let sys = R.System.create pmem ~registry ~config in
  let nprocs = 2 in
  let base = Heap.alloc (R.System.heap sys) (Rcas.region_size ~nprocs) in
  rcas := Some (Rcas.create pmem ~base ~nprocs ~init:0 ~variant:Rcas.Correct);
  let tas_base =
    Heap.alloc (R.System.heap sys) (Recoverable.Rtas.region_size ~nprocs)
  in
  rtas :=
    Some
      (Recoverable.Rtas.create pmem ~base:tas_base ~nprocs
         ~variant:Rcas.Correct);
  (pmem, sys, handle, tas_handle)

let test_rtas_semantics () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 16) () in
  let t =
    Recoverable.Rtas.create pmem ~base:(off 64) ~nprocs:4 ~variant:Rcas.Correct
  in
  Alcotest.(check bool) "initially unset" false (Recoverable.Rtas.is_set t);
  Alcotest.(check (option int)) "no winner" None (Recoverable.Rtas.winner t);
  Alcotest.(check bool) "first wins" true (Recoverable.Rtas.test_and_set t ~pid:2);
  Alcotest.(check bool) "second loses" false
    (Recoverable.Rtas.test_and_set t ~pid:1);
  Alcotest.(check (option int)) "winner recorded" (Some 2)
    (Recoverable.Rtas.winner t);
  (* the winner's recovery proves its win; a loser's recovery re-loses *)
  let seq = Recoverable.Rtas.bump t ~pid:3 in
  Alcotest.(check bool) "late recover loses" false
    (Recoverable.Rtas.recover_with_seq t ~pid:3 ~seq)

let test_rtas_winner_recovery () =
  (* crash right after the winning install: recovery must confirm the win *)
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 16) () in
  let t =
    Recoverable.Rtas.create pmem ~base:(off 64) ~nprocs:4 ~variant:Rcas.Correct
  in
  let seq = Recoverable.Rtas.bump t ~pid:0 in
  Alcotest.(check bool) "install" true
    (Recoverable.Rtas.test_and_set_with_seq t ~pid:0 ~seq);
  Alcotest.(check bool) "recovery confirms" true
    (Recoverable.Rtas.recover_with_seq t ~pid:0 ~seq);
  Alcotest.(check bool) "idempotent" true
    (Recoverable.Rtas.recover_with_seq t ~pid:0 ~seq)

let test_rtas_concurrent_single_winner () =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 16) () in
  let t =
    Recoverable.Rtas.create pmem ~base:(off 64) ~nprocs:4 ~variant:Rcas.Correct
  in
  let wins = Array.make 4 false in
  let threads =
    List.init 4 (fun pid ->
        Thread.create
          (fun () -> wins.(pid) <- Recoverable.Rtas.test_and_set t ~pid)
          ())
  in
  List.iter Thread.join threads;
  let winners = Array.to_list wins |> List.filter Fun.id |> List.length in
  Alcotest.(check int) "exactly one winner" 1 winners

let test_fetch_add_op () =
  let _, sys, handle, _ = make_full_system () in
  let ctx = R.System.ctx sys 0 in
  Alcotest.(check int64) "add 5" 5L
    (R.Exec.call ctx ~func_id:fadd_id ~args:(R.Value.of_int 5));
  Alcotest.(check int64) "add -2" 3L
    (R.Exec.call ctx ~func_id:fadd_id ~args:(R.Value.of_int (-2)));
  Alcotest.(check int) "value" 3 (Rcas.read (handle ()))

let test_swap_op () =
  let _, sys, handle, _ = make_full_system () in
  let ctx = R.System.ctx sys 0 in
  Alcotest.(check int64) "swap returns old" 0L
    (R.Exec.call ctx ~func_id:swap_id ~args:(R.Value.of_int 42));
  Alcotest.(check int64) "swap returns 42" 42L
    (R.Exec.call ctx ~func_id:swap_id ~args:(R.Value.of_int 7));
  Alcotest.(check int) "final value" 7 (Rcas.read (handle ()))

let test_tas_op () =
  let _, sys, _, tas_handle = make_full_system () in
  let ctx0 = R.System.ctx sys 0 in
  let ctx1 = R.System.ctx sys 1 in
  Alcotest.(check bool) "worker 0 wins" true
    (R.Value.bool_of_answer (R.Exec.call ctx0 ~func_id:tas_id ~args:Bytes.empty));
  Alcotest.(check bool) "worker 1 loses" false
    (R.Value.bool_of_answer (R.Exec.call ctx1 ~func_id:tas_id ~args:Bytes.empty));
  Alcotest.(check (option int)) "winner" (Some 0)
    (Recoverable.Rtas.winner (tas_handle ()))

(* Crash-point sweep over a swap chain: swaps return each value exactly
   once even across crashes. *)
let test_swap_crash_sweep () =
  let run_with plan =
    let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
    let registry = R.Registry.create () in
    let rcas = ref None in
    let handle () = Option.get !rcas in
    Cas_op.register_fetch_attempt registry ~id:fetch_attempt_id handle;
    Cas_op.register_swap registry ~id:swap_id ~fetch_attempt_id handle;
    let config =
      {
        R.System.workers = 1;
        stack_kind = R.System.Bounded_stack 4096;
        task_capacity = 3;
        task_max_args = 16;
      }
    in
    let report =
      R.Driver.run_to_completion pmem ~registry ~config
        ~init:(fun sys ->
          let base =
            Heap.alloc (R.System.heap sys) (Rcas.region_size ~nprocs:1)
          in
          rcas :=
            Some (Rcas.create pmem ~base ~nprocs:1 ~init:10 ~variant:Rcas.Correct);
          R.System.set_root sys base)
        ~reattach:(fun sys ->
          let base = Option.get (R.System.root sys) in
          rcas := Some (Rcas.attach pmem ~base ~nprocs:1 ~variant:Rcas.Correct))
        ~submit:(fun sys ->
          List.iter
            (fun v ->
              ignore (R.System.submit sys ~func_id:swap_id ~args:(R.Value.of_int v)))
            [ 20; 30; 40 ])
        ~plan ()
    in
    (List.map (fun (_, a) -> Int64.to_int a) report.R.Driver.results,
     Rcas.read (handle ()))
  in
  let baseline, final = run_with (fun ~era:_ -> Crash.Never) in
  Alcotest.(check (list int)) "sequential chain" [ 10; 20; 30 ] baseline;
  Alcotest.(check int) "final" 40 final;
  for p = 1 to 250 do
    let answers, final =
      run_with (fun ~era -> if era = 1 then Crash.At_op p else Crash.Never)
    in
    (* single worker: tasks run in order, so the chain is deterministic *)
    if answers <> [ 10; 20; 30 ] || final <> 40 then
      Alcotest.failf "swap crash at %d: answers [%s] final %d" p
        (String.concat ";" (List.map string_of_int answers))
        final
  done

(* ------------------------------------------------------------------ *)
(* Device-traffic pins                                                  *)

(* One fixed single-worker script per structure, run inline with no crash
   and then with a crash at every persistence point of era 1, each run
   followed by recovery to completion.  Every persistence access the device
   announces (kind, line range, persists), every read range, every answer
   and the final content feed one digest per structure, so the digest pins
   the device calls of each op and of each recover, in order. *)

type pinned = {
  register : R.Exec.t R.Registry.t -> unit;
  init : R.System.t -> unit;
  reattach : R.System.t -> unit;
  reclaim : R.System.t -> Offset.t list;
  script : (int * bytes) list;
  final : unit -> string;
}

let pin_config =
  {
    R.System.workers = 1;
    stack_kind = R.System.Bounded_stack 4096;
    task_capacity = 8;
    task_max_args = 16;
  }

let inline_spawn body n =
  for i = 0 to n - 1 do
    body i
  done

let root_exn sys = Option.get (R.System.root sys)

(* A structure living at the system root: [create] formats it, [attach]
   rebinds it after a restart, [roots] lists its heap blocks. *)
let rooted ~size ~create ~attach ~roots =
  let cell = ref None in
  let handle () = Option.get !cell in
  let init sys =
    let base = Heap.alloc (R.System.heap sys) size in
    cell := Some (create sys base);
    R.System.set_root sys base
  in
  let reattach sys = cell := Some (attach sys (root_exn sys)) in
  let reclaim sys = root_exn sys :: roots (handle ()) in
  (handle, init, reattach, reclaim)

let ints l = String.concat "," (List.map string_of_int l)

let stack_pin () =
  let module S = Recoverable.Rstack in
  let handle, init, reattach, reclaim =
    rooted ~size:(S.region_size ~nprocs:1)
      ~create:(fun sys base ->
        S.create (R.System.pmem sys) ~heap:(R.System.heap sys) ~base ~nprocs:1)
      ~attach:(fun sys base ->
        S.attach (R.System.pmem sys) ~heap:(R.System.heap sys) ~base ~nprocs:1)
      ~roots:S.live_nodes
  in
  {
    register =
      (fun registry ->
        Recoverable.Stack_op.register_push registry ~id:40 ~attempt_id:41
          handle;
        Recoverable.Stack_op.register_pop registry ~id:42 ~attempt_id:43
          handle);
    init;
    reattach;
    reclaim;
    script =
      [
        (40, R.Value.of_int 1);
        (40, R.Value.of_int 2);
        (42, Bytes.empty);
        (42, Bytes.empty);
        (42, Bytes.empty);
      ];
    final = (fun () -> ints (S.to_list (handle ())));
  }

let queue_pin () =
  let module Q = Recoverable.Rqueue in
  let handle, init, reattach, reclaim =
    rooted ~size:(Q.region_size ~nprocs:1)
      ~create:(fun sys base ->
        Q.create (R.System.pmem sys) ~heap:(R.System.heap sys) ~base ~nprocs:1)
      ~attach:(fun sys base ->
        Q.attach (R.System.pmem sys) ~heap:(R.System.heap sys) ~base ~nprocs:1)
      ~roots:Q.live_nodes
  in
  {
    register =
      (fun registry ->
        Recoverable.Queue_op.register_enqueue registry ~id:44 ~attempt_id:45
          handle;
        Recoverable.Queue_op.register_dequeue registry ~id:46 ~attempt_id:47
          handle);
    init;
    reattach;
    reclaim;
    script =
      [
        (44, R.Value.of_int 1);
        (44, R.Value.of_int 2);
        (46, Bytes.empty);
        (46, Bytes.empty);
        (46, Bytes.empty);
      ];
    final = (fun () -> ints (Q.to_list (handle ())));
  }

let map_pin () =
  let module M = Recoverable.Rmap in
  let handle, init, reattach, reclaim =
    rooted
      ~size:(M.region_size ~buckets:4 ~nprocs:1)
      ~create:(fun sys base ->
        M.create (R.System.pmem sys) ~heap:(R.System.heap sys) ~base
          ~buckets:4 ~nprocs:1)
      ~attach:(fun sys base ->
        M.attach (R.System.pmem sys) ~heap:(R.System.heap sys) ~base
          ~buckets:4 ~nprocs:1)
      ~roots:M.live_nodes
  in
  {
    register =
      (fun registry ->
        Recoverable.Map_op.register_put registry ~id:48 ~attempt_id:49 handle;
        Recoverable.Map_op.register_remove registry ~id:50 ~attempt_id:51
          handle;
        Recoverable.Map_op.register_find registry ~id:52 handle);
    init;
    reattach;
    reclaim;
    script =
      [
        (48, R.Value.of_int2 1 10);
        (48, R.Value.of_int2 2 20);
        (52, R.Value.of_int 1);
        (50, R.Value.of_int 1);
        (50, R.Value.of_int 1);
        (52, R.Value.of_int 1);
        (48, R.Value.of_int2 1 11);
        (52, R.Value.of_int 1);
      ];
    final =
      (fun () ->
        String.concat ";"
          (List.map
             (fun (k, v) -> Printf.sprintf "%d=%d" k v)
             (List.sort compare (M.bindings (handle ())))));
  }

let tas_pin () =
  let module T = Recoverable.Rtas in
  let handle, init, reattach, reclaim =
    rooted ~size:(T.region_size ~nprocs:1)
      ~create:(fun sys base ->
        T.create (R.System.pmem sys) ~base ~nprocs:1 ~variant:Rcas.Correct)
      ~attach:(fun sys base ->
        T.attach (R.System.pmem sys) ~base ~nprocs:1 ~variant:Rcas.Correct)
      ~roots:(fun _ -> [])
  in
  {
    register =
      (fun registry ->
        Cas_op.register_tas registry ~id:53 ~attempt_id:54 handle);
    init;
    reattach;
    reclaim;
    script = [ (53, Bytes.empty); (53, Bytes.empty) ];
    final =
      (fun () ->
        match T.winner (handle ()) with
        | Some w -> string_of_int w
        | None -> "-");
  }

(* Run [make]'s script once per era-1 plan — no crash, then [At_op 1],
   [At_op 2], ... until a plan no longer fires — and digest the traffic.
   Returns the number of crash points and the digest. *)
let traffic_digest make =
  let log = Buffer.create 65536 in
  let run_once plan =
    let p = make () in
    let pmem = Pmem.create ~size:(1 lsl 20) () in
    let ctl = Pmem.crash_ctl pmem in
    let take_reads () =
      List.iter
        (fun (first, last) -> Printf.bprintf log "r%d-%d " first last)
        (List.rev (Crash.take_reads ctl))
    in
    Crash.set_scheduler ctl
      (Some
         (fun { Crash.kind; first_line; last_line; persists } ->
           take_reads ();
           Printf.bprintf log "%c%d-%d%s "
             (match kind with Crash.Write -> 'w' | Flush -> 'f' | Cas -> 'c')
             first_line last_line
             (if persists then "p" else "")));
    let registry = R.Registry.create () in
    p.register registry;
    let report =
      R.Driver.run_to_completion pmem ~registry ~config:pin_config
        ~init:p.init ~reattach:p.reattach ~reclaim:p.reclaim
        ~submit:(fun sys ->
          List.iter
            (fun (func_id, args) -> ignore (R.System.submit sys ~func_id ~args))
            p.script)
        ~plan:(fun ~era -> if era = 1 then plan else Crash.Never)
        ~spawn:inline_spawn ()
    in
    take_reads ();
    Crash.set_scheduler ctl None;
    List.iter (fun (i, a) -> Printf.bprintf log "a%d=%Ld " i a) report.results;
    Printf.bprintf log "final %s\n" (p.final ());
    report.R.Driver.crashes
  in
  ignore (run_once Crash.Never);
  let rec sweep n = if run_once (Crash.At_op n) > 0 then sweep (n + 1) else n - 1 in
  let points = sweep 1 in
  (points, Digest.to_hex (Digest.string (Buffer.contents log)))

let test_traffic_pinned (make, points, digest) () =
  let points', digest' = traffic_digest make in
  Alcotest.(check int) "era-1 persistence points" points points';
  Alcotest.(check string) "traffic digest" digest digest'

let () =
  Alcotest.run "recoverable"
    [
      ( "rcas semantics",
        [
          Alcotest.test_case "read initial" `Quick test_read_initial;
          Alcotest.test_case "cas semantics" `Quick test_cas_semantics;
          Alcotest.test_case "negative values" `Quick test_negative_values;
          Alcotest.test_case "sequence persistent" `Quick
            test_sequence_is_persistent;
          Alcotest.test_case "announcement" `Quick
            test_announcement_records_overwrite;
          Alcotest.test_case "packing limits" `Quick test_packing_limits;
          Alcotest.test_case "concurrent chain" `Quick test_concurrent_cas_chain;
        ] );
      ( "recovery evidence",
        [
          Alcotest.test_case "overwritten install (planted bug)" `Quick
            test_evidence_after_overwrite;
          Alcotest.test_case "install still visible" `Quick
            test_evidence_value_still_installed;
          Alcotest.test_case "re-execution when uninstalled" `Quick
            test_recover_reexecutes_uninstalled;
        ] );
      ( "derived primitives",
        [
          Alcotest.test_case "rtas semantics" `Quick test_rtas_semantics;
          Alcotest.test_case "rtas winner recovery" `Quick
            test_rtas_winner_recovery;
          Alcotest.test_case "rtas single winner" `Quick
            test_rtas_concurrent_single_winner;
          Alcotest.test_case "fetch-and-add op" `Quick test_fetch_add_op;
          Alcotest.test_case "swap op" `Quick test_swap_op;
          Alcotest.test_case "test-and-set op" `Quick test_tas_op;
          Alcotest.test_case "swap crash-point sweep" `Slow
            test_swap_crash_sweep;
        ] );
      ( "runtime bindings",
        [
          Alcotest.test_case "cas op" `Quick test_cas_op_via_runtime;
          Alcotest.test_case "increment op" `Quick test_increment_op;
          Alcotest.test_case "write op" `Quick test_write_op;
          Alcotest.test_case "attempt answer packing" `Quick
            test_attempt_answer_packing;
          Alcotest.test_case "cas crash-point sweep" `Slow test_cas_crash_sweep;
        ] );
      ( "device traffic",
        List.map
          (fun (name, pin) ->
            Alcotest.test_case name `Slow (test_traffic_pinned pin))
          [
            ("stack push/pop", (stack_pin, 209, "598d3a506966f214e33e0ad671e1e4d3"));
            ("queue enqueue/dequeue", (queue_pin, 214, "a398cfaff12797b4eb23da322b60be5d"));
            ("map put/remove/find", (map_pin, 293, "50e356d34e02c89a069daab4e8ce0293"));
            ("test-and-set", (tas_pin, 76, "749b1184c5ce2a5f36a8515489985ad8"));
          ] );
    ]
