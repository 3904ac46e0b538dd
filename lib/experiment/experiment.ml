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
  reproducer : Fuzz.Reproducer.t;
}

let workload spec =
  let init, pairs =
    Verify.Generator.workload ~seed:spec.seed ~n:spec.n_ops ~range:spec.range
  in
  {
    Fuzz.Workload.kind =
      (match spec.variant with
      | Rcas.Correct -> Fuzz.Workload.Rcas
      | Rcas.Buggy -> Fuzz.Workload.Rcas_buggy);
    workers = spec.workers;
    init;
    stack = spec.stack_kind;
    ops = List.map (fun (e, d) -> Fuzz.Workload.Cas (e, d)) pairs;
  }

(* One crash plan per era the harness's crash budget allows, so a run
   crashes as often as the spec asks; past the list every era is [Never]. *)
let schedule spec =
  let eras =
    match spec.crash_mode with
    | No_crashes -> []
    | Every_ops n -> List.init Fuzz.Harness.max_crashes (fun _ -> Crash.At_op n)
    | Random_ops probability ->
        List.init Fuzz.Harness.max_crashes (fun i ->
            Crash.Random { seed = (spec.seed * 7919) + i + 1; probability })
  in
  { Fuzz.Schedule.none with eras }

let run ?(device_size = 1 lsl 22) spec =
  let workload = workload spec and schedule = schedule spec in
  let o =
    Fuzz.Harness.run
      ~decide:(fun () ->
        Runtime.Coop.random_decision (Random.State.make [| spec.seed |]))
      ~device_size workload schedule
  in
  match o.Fuzz.Harness.history with
  | Some history ->
      {
        spec;
        history;
        verdict = Verify.Serializability.check history;
        eras = o.stats.eras;
        crashes = o.stats.crashes;
        reproducer =
          {
            Fuzz.Reproducer.seed = Some spec.seed;
            case = None;
            workload;
            schedule = { schedule with interleave = o.interleave };
            expected = None;
            trace = [];
          };
      }
  | None -> (
      match o.verdict with
      | Fail msg | Fatal msg -> failwith ("Experiment.run: " ^ msg)
      | Pass -> failwith "Experiment.run: no CAS history")

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
  let attempt_func_id = 11 and cas_func_id = 12 in
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
  let spawn =
    Runtime.Coop.spawn ~crash_ctl:(Pmem.crash_ctl pmem)
      ~decide:(Runtime.Coop.random_decision (Random.State.make [| spec.seed |]))
  in
  (match System.run ~spawn sys with
  | `Completed -> ()
  | `Crashed -> invalid_arg "Experiment.run_timed: unexpected crash");
  (List.rev !trace, init_value)
