module Pmem = Nvram.Pmem
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module System = Runtime.System
module Value = Runtime.Value
module Rcas = Recoverable.Rcas

type crash_mode = No_crashes | Every_ops of int | Random_ops of float

type spec = {
  n_ops : int;
  range : Verify.Generator.range;
  seed : int;
  workers : int;
  variant : Rcas.variant;
  crash_mode : crash_mode;
  stack_kind : System.stack_kind;
}

let default_spec =
  {
    n_ops = 64;
    range = Verify.Generator.Narrow;
    seed = 1;
    workers = 4;
    variant = Rcas.Correct;
    crash_mode = Every_ops 400;
    stack_kind = System.Bounded_stack 4096;
  }

type outcome = {
  spec : spec;
  history : Verify.History.t;
  verdict : Verify.Serializability.verdict;
  eras : int;
  crashes : int;
  flushes : int;
}

let attempt_func_id = 11
let cas_func_id = 12

let plan_of spec ~era =
  match spec.crash_mode with
  | No_crashes -> Crash.Never
  | Every_ops n -> Crash.At_op n
  | Random_ops probability ->
      Crash.Random { seed = (spec.seed * 7919) + era; probability }

(* Cooperative workers under a uniform-random policy seeded from the spec:
   an experiment is a function of its spec. *)
let spawn spec pmem =
  Runtime.Coop.spawn ~crash_ctl:(Pmem.crash_ctl pmem)
    ~decide:(Runtime.Coop.random_decision (Random.State.make [| spec.seed |]))

let run ?(device_size = 1 lsl 22) spec =
  let init_value, pairs =
    Verify.Generator.workload ~seed:spec.seed ~n:spec.n_ops ~range:spec.range
  in
  (* Section 5: the CAS algorithm assumes no volatile NVRAM cache, so the
     device persists every write immediately. *)
  let lines_before =
    (Obs.Counters.totals Obs.Probe.counters).Obs.Counters.lines_flushed
  in
  let pmem = Pmem.create ~auto_flush:true ~size:device_size () in
  let registry = Runtime.Registry.create () in
  let rcas = ref None in
  let handle () =
    match !rcas with
    | Some r -> r
    | None -> invalid_arg "Experiment: register not initialised"
  in
  Recoverable.Cas_op.register_attempt registry ~id:attempt_func_id handle;
  Recoverable.Cas_op.register_cas registry ~id:cas_func_id
    ~attempt_id:attempt_func_id handle;
  let config =
    {
      System.workers = spec.workers;
      stack_kind = spec.stack_kind;
      task_capacity = spec.n_ops;
      task_max_args = 16;
    }
  in
  let init sys =
    let base =
      Heap.alloc (System.heap sys) (Rcas.region_size ~nprocs:spec.workers)
    in
    rcas :=
      Some
        (Rcas.create pmem ~base ~nprocs:spec.workers ~init:init_value
           ~variant:spec.variant);
    System.set_root sys base
  in
  let reattach sys =
    match System.root sys with
    | Some base ->
        rcas :=
          Some (Rcas.attach pmem ~base ~nprocs:spec.workers ~variant:spec.variant)
    | None -> invalid_arg "Experiment: system root lost"
  in
  let submit sys =
    List.iter
      (fun (old_value, new_value) ->
        ignore
          (System.submit sys ~func_id:cas_func_id
             ~args:(Value.of_int2 old_value new_value)))
      pairs
  in
  let reclaim sys =
    match System.root sys with Some base -> [ base ] | None -> []
  in
  let report =
    Runtime.Driver.run_to_completion pmem ~registry ~config ~submit ~init
      ~reattach ~reclaim ~plan:(plan_of spec) ~spawn:(spawn spec pmem) ()
  in
  let ops =
    List.map2
      (fun (expected, desired) (_, answer) ->
        { Verify.History.expected; desired; result = Value.bool_of_answer answer })
      pairs report.results
  in
  let history =
    {
      Verify.History.init = init_value;
      final = Rcas.read (handle ());
      ops;
    }
  in
  {
    spec;
    history;
    verdict = Verify.Serializability.check history;
    eras = report.eras;
    crashes = report.crashes;
    flushes =
      (Obs.Counters.totals Obs.Probe.counters).Obs.Counters.lines_flushed
      - lines_before;
  }

let pp_range fmt = function
  | Verify.Generator.Wide -> Format.pp_print_string fmt "wide"
  | Verify.Generator.Narrow -> Format.pp_print_string fmt "narrow"
  | Verify.Generator.Custom (lo, hi) -> Format.fprintf fmt "[%d,%d]" lo hi

let pp_variant fmt = function
  | Rcas.Correct -> Format.pp_print_string fmt "correct"
  | Rcas.Buggy -> Format.pp_print_string fmt "buggy"

let pp_outcome fmt o =
  Format.fprintf fmt
    "%d ops, %a range, %d workers, %a CAS: %d crashes, %d eras, %d \
     successes/%d failures, final=%d -> %a"
    o.spec.n_ops pp_range o.spec.range o.spec.workers pp_variant o.spec.variant
    o.crashes o.eras
    (List.length (Verify.History.successes o.history))
    (List.length (Verify.History.failures o.history))
    o.history.Verify.History.final Verify.Serializability.pp_verdict o.verdict

let run_timed ?(device_size = 1 lsl 22) spec =
  let init_value, pairs =
    Verify.Generator.workload ~seed:spec.seed ~n:spec.n_ops ~range:spec.range
  in
  let pmem = Pmem.create ~auto_flush:true ~size:device_size () in
  let registry = Runtime.Registry.create () in
  let rcas = ref None in
  let handle () = Option.get !rcas in
  Recoverable.Cas_op.register_attempt registry ~id:attempt_func_id handle;
  (* A timed wrapper around the CAS operation: invocation and response are
     stamped on a shared logical clock.  Crash-free, so the recover
     function never runs. *)
  let clock = Atomic.make 0 in
  let tick () = Atomic.fetch_and_add clock 1 in
  let trace = ref [] in
  let body ctx args =
    let expected, desired = Value.to_int2 args in
    let invoked = tick () in
    let seq = Rcas.bump (handle ()) ~pid:ctx.Runtime.Exec.worker_id in
    let answer =
      Runtime.Exec.call ctx ~func_id:attempt_func_id
        ~args:(Value.of_int3 expected desired seq)
    in
    let result = Recoverable.Cas_op.attempt_succeeded answer in
    let returned = tick () in
    trace :=
      {
        Verify.History.pid = ctx.Runtime.Exec.worker_id;
        base = { Verify.History.expected; desired; result };
        invoked;
        returned;
      }
      :: !trace;
    Value.answer_of_bool result
  in
  Runtime.Registry.register registry ~id:cas_func_id ~name:"rcas.cas_timed"
    ~body
    ~recover:(Runtime.Registry.completing body);
  let config =
    {
      System.workers = spec.workers;
      stack_kind = spec.stack_kind;
      task_capacity = spec.n_ops;
      task_max_args = 16;
    }
  in
  let sys = System.create pmem ~registry ~config in
  let base =
    Heap.alloc (System.heap sys) (Rcas.region_size ~nprocs:spec.workers)
  in
  rcas :=
    Some
      (Rcas.create pmem ~base ~nprocs:spec.workers ~init:init_value
         ~variant:spec.variant);
  List.iter
    (fun (old_value, new_value) ->
      ignore
        (System.submit sys ~func_id:cas_func_id
           ~args:(Value.of_int2 old_value new_value)))
    pairs;
  (match System.run ~spawn:(spawn spec pmem) sys with
  | `Completed -> ()
  | `Crashed -> invalid_arg "Experiment.run_timed: unexpected crash");
  (List.rev !trace, init_value)
