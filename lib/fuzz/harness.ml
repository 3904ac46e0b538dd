module Pmem = Nvram.Pmem
module Crash = Nvram.Crash
module Offset = Nvram.Offset
module Heap = Nvheap.Heap
module System = Runtime.System
module Coop = Runtime.Coop
module Value = Runtime.Value
module Rstack = Recoverable.Rstack
module Rqueue = Recoverable.Rqueue
module Rmap = Recoverable.Rmap
module Rcas = Recoverable.Rcas

type stats = { eras : int; crashes : int }
type verdict = Pass | Fail of string | Fatal of string

type outcome = {
  verdict : verdict;
  stats : stats;
  crash_points : (int * int) list;
  history : Verify.History.t option;
  fingerprint : string;
  recovery : Runtime.Recovery_report.t;
  interleave : int list;
}

type event =
  | Driver of Runtime.Driver.event
  | Decision of Coop.point * Coop.decision

(* Function identifiers of the fuzz workloads (2 is the first free id). *)
let push_id = 40
let push_attempt_id = 41
let pop_id = 42
let pop_attempt_id = 43
let enq_id = 44
let enq_attempt_id = 45
let deq_id = 46
let deq_attempt_id = 47
let put_id = 48
let put_attempt_id = 49
let rm_id = 50
let rm_attempt_id = 51
let cas_id = 52
let cas_attempt_id = 53
let bump_id = 54
let rbump_id = 55
let map_buckets = 16

let ( let* ) r f = match r with Ok v -> f v | Error msg -> Fail msg

let rec check_duplicates ~what = function
  | [] -> Ok ()
  | v :: rest ->
      if List.mem v rest then
        Error (Printf.sprintf "%s: value %d extracted twice" what v)
      else check_duplicates ~what rest

let check_conservation ~what ~inserted ~extracted ~remaining =
  let sorted = List.sort compare in
  if sorted (extracted @ remaining) = sorted inserted then Ok ()
  else
    Error
      (Printf.sprintf
         "%s: values not conserved (%d inserted, %d extracted, %d remaining)"
         what (List.length inserted) (List.length extracted)
         (List.length remaining))

(* The stack and the queue seen as one op per answer: an insert of a
   value, an extract that answered a value (or empty), or an op of another
   structure. *)
type step = Insert of int | Extract of int option | Foreign

let stack_step op answer =
  match op with
  | Workload.Push v -> Insert v
  | Workload.Pop -> Extract (Recoverable.Stack_op.pop_answer answer)
  | _ -> Foreign

let queue_step op answer =
  match op with
  | Workload.Enqueue v -> Insert v
  | Workload.Dequeue -> Extract (Recoverable.Queue_op.dequeue_answer answer)
  | _ -> Foreign

(* Sequential ground truth for single-worker runs: one worker executes
   tasks in submission order, so the answers must replay a plain
   in-memory stack ([lifo]) or queue op for op, whatever the crash
   schedule did. *)
let check_sequential ~what ~lifo steps =
  let rec go i contents = function
    | [] -> Ok ()
    | Insert v :: steps ->
        go (i + 1) (if lifo then v :: contents else contents @ [ v ]) steps
    | Extract got :: steps ->
        let expect, rest =
          match contents with [] -> (None, []) | v :: rest -> (Some v, rest)
        in
        if got = expect then go (i + 1) rest steps
        else
          Error (Printf.sprintf "%s: op %d diverges from sequential replay" what i)
    | Foreign :: _ -> Error (what ^ ": op/answer shape mismatch")
  in
  go 0 [] steps

let check_sequential_map ops answers bindings =
  let tbl = Hashtbl.create 16 in
  let rec go i ops answers =
    match (ops, answers) with
    | [], [] ->
        let expect =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
          |> List.sort compare
        in
        if List.sort compare bindings = expect then Ok ()
        else Error "rmap: final bindings diverge from sequential replay"
    | Workload.Put (k, v) :: ops, _ :: answers ->
        Hashtbl.replace tbl k v;
        go (i + 1) ops answers
    | Workload.Remove k :: ops, answer :: answers ->
        let present = Hashtbl.mem tbl k in
        Hashtbl.remove tbl k;
        if Int64.equal answer (if present then 1L else 0L) then
          go (i + 1) ops answers
        else
          Error (Printf.sprintf "rmap: remove %d diverges from sequential replay" i)
    | _ -> Error "rmap: op/answer shape mismatch"
  in
  go 0 ops answers

(* Weaker, interleaving-independent invariants for concurrent runs. *)
let check_concurrent_map ops answers bindings =
  let puts =
    List.filter_map
      (function Workload.Put (k, v) -> Some (k, v) | _ -> None)
      ops
  in
  let rec check_bindings = function
    | [] -> Ok ()
    | (k, v) :: rest ->
        if List.mem (k, v) puts then check_bindings rest
        else Error (Printf.sprintf "rmap: binding (%d, %d) was never put" k v)
  in
  let* () = check_bindings bindings in
  let removed_true =
    List.combine ops answers
    |> List.filter_map (function
         | Workload.Remove k, a when Int64.equal a 1L -> Some k
         | _ -> None)
  in
  let count key l = List.length (List.filter (( = ) key) l) in
  let keys = List.sort_uniq compare (List.map fst puts @ removed_true) in
  let rec check_removes = function
    | [] -> Pass
    | k :: rest ->
        if count k removed_true > count k (List.map fst puts) then
          Fail
            (Printf.sprintf "rmap: key %d removed more often than it was put" k)
        else check_removes rest
  in
  check_removes keys

(* Exactly-once for the stack and the queue: no value extracted twice,
   extracted plus remaining values are the inserted ones, and one worker
   replays the sequential structure. *)
let check_extracting ~what ~lifo step workload answers remaining =
  let steps = List.map2 step workload.Workload.ops answers in
  let inserted = List.filter_map (function Insert v -> Some v | _ -> None) steps in
  let extracted = List.filter_map (function Extract v -> v | _ -> None) steps in
  let* () = check_duplicates ~what extracted in
  let* () = check_conservation ~what ~inserted ~extracted ~remaining in
  if workload.Workload.workers = 1 then
    let* () = check_sequential ~what ~lifo steps in
    Pass
  else Pass

let check_map workload answers bindings =
  let ops = workload.Workload.ops in
  if workload.Workload.workers = 1 then
    let* () = check_sequential_map ops answers bindings in
    Pass
  else check_concurrent_map ops answers bindings

let cas_history workload answers ~final =
  let ops =
    List.combine workload.Workload.ops answers
    |> List.map (function
         | Workload.Cas (expected, desired), a ->
             { Verify.History.expected; desired; result = Value.bool_of_answer a }
         | _ -> invalid_arg "Harness: non-CAS op in an rcas workload")
  in
  { Verify.History.init = workload.Workload.init; final; ops }

let check_cas history =
  match Verify.Serializability.check history with
  | Verify.Serializability.Serializable _ -> Pass
  | Verify.Serializability.Not_serializable _ as verdict ->
      Fail (Format.asprintf "rcas: %a" Verify.Serializability.pp_verdict verdict)

(* ------------------------------------------------------------------ *)

type case = {
  registry : Runtime.Exec.t Runtime.Registry.t;
  init : System.t -> unit;
  reattach : System.t -> unit;
  reclaim : System.t -> Offset.t list;
  submit_op : System.t -> int -> Workload.op -> unit;
  (* evaluated after completion: per-kind verdict and optional history *)
  conclude : (int * int64) list -> verdict * Verify.History.t option;
  (* evaluated after completion: a canonical digest of the surviving
     structure state, combined with the answers into the outcome's
     recovery fingerprint *)
  digest : unit -> string;
}

let root_exn sys =
  match System.root sys with
  | Some base -> base
  | None -> invalid_arg "Harness: system root lost"

let submit sys ~func_id ~args = ignore (System.submit sys ~func_id ~args)

let answers_in_order workload results =
  let n = List.length workload.Workload.ops in
  if List.length results <> n then
    Error
      (Printf.sprintf "%d ops submitted but %d answers recorded" n
         (List.length results))
  else if List.exists (fun (i, _) -> i < 0 || i >= n) results then
    Error "answer recorded for an unknown task"
  else
    Ok (List.map snd (List.sort (fun (i, _) (j, _) -> compare i j) results))

(* A linked structure on the heap (stack, queue, map): a root region
   holding its per-worker state, nodes reclaimed from its live chains.
   [register] installs its operations against the structure's handle,
   [func_of] names the task an op submits, and [check] and [digest] read
   the structure after completion. *)
let structure_case ~register ~region_size ~create ~attach ~live_nodes
    ~func_of ~check ~digest pmem workload =
  let registry = Runtime.Registry.create () in
  let structure = ref None in
  let handle () = Option.get !structure in
  register registry handle;
  let nprocs = workload.Workload.workers in
  {
    registry;
    init =
      (fun sys ->
        let heap = System.heap sys in
        let base = Heap.alloc heap (region_size ~nprocs) in
        structure := Some (create pmem ~heap ~base ~nprocs);
        System.set_root sys base);
    reattach =
      (fun sys ->
        structure :=
          Some (attach pmem ~heap:(System.heap sys) ~base:(root_exn sys) ~nprocs));
    reclaim = (fun sys -> root_exn sys :: live_nodes (handle ()));
    submit_op =
      (fun sys _index op ->
        let func_id, args = func_of op in
        submit sys ~func_id ~args);
    conclude =
      (fun results ->
        ( (let* answers = answers_in_order workload results in
           check workload answers (handle ())),
          None ));
    digest = (fun () -> digest (handle ()));
  }

let digest_ints l = String.concat ";" (List.map string_of_int l)

let stack_case =
  structure_case
    ~register:(fun registry handle ->
      Recoverable.Stack_op.register_push registry ~id:push_id
        ~attempt_id:push_attempt_id handle;
      Recoverable.Stack_op.register_pop registry ~id:pop_id
        ~attempt_id:pop_attempt_id handle)
    ~region_size:Rstack.region_size ~create:Rstack.create ~attach:Rstack.attach
    ~live_nodes:Rstack.live_nodes
    ~func_of:(function
      | Workload.Push v -> (push_id, Value.of_int v)
      | Workload.Pop -> (pop_id, Bytes.empty)
      | _ -> invalid_arg "Harness: non-stack op in an rstack workload")
    ~check:(fun workload answers stack ->
      check_extracting ~what:"rstack" ~lifo:true stack_step workload answers
        (Rstack.to_list stack))
    ~digest:(fun stack -> digest_ints (Rstack.to_list stack))

let queue_case =
  structure_case
    ~register:(fun registry handle ->
      Recoverable.Queue_op.register_enqueue registry ~id:enq_id
        ~attempt_id:enq_attempt_id handle;
      Recoverable.Queue_op.register_dequeue registry ~id:deq_id
        ~attempt_id:deq_attempt_id handle)
    ~region_size:Rqueue.region_size ~create:Rqueue.create ~attach:Rqueue.attach
    ~live_nodes:Rqueue.live_nodes
    ~func_of:(function
      | Workload.Enqueue v -> (enq_id, Value.of_int v)
      | Workload.Dequeue -> (deq_id, Bytes.empty)
      | _ -> invalid_arg "Harness: non-queue op in an rqueue workload")
    ~check:(fun workload answers queue ->
      check_extracting ~what:"rqueue" ~lifo:false queue_step workload answers
        (Rqueue.to_list queue))
    ~digest:(fun queue -> digest_ints (Rqueue.to_list queue))

let map_case =
  structure_case
    ~register:(fun registry handle ->
      Recoverable.Map_op.register_put registry ~id:put_id
        ~attempt_id:put_attempt_id handle;
      Recoverable.Map_op.register_remove registry ~id:rm_id
        ~attempt_id:rm_attempt_id handle)
    ~region_size:(Rmap.region_size ~buckets:map_buckets)
    ~create:(Rmap.create ~buckets:map_buckets)
    ~attach:(Rmap.attach ~buckets:map_buckets)
    ~live_nodes:Rmap.live_nodes
    ~func_of:(function
      | Workload.Put (k, v) -> (put_id, Value.of_int2 k v)
      | Workload.Remove k -> (rm_id, Value.of_int k)
      | _ -> invalid_arg "Harness: non-map op in an rmap workload")
    ~check:(fun workload answers map ->
      check_map workload answers (Rmap.bindings map))
    ~digest:(fun map ->
      Rmap.bindings map |> List.sort compare
      |> List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v)
      |> String.concat ";")

let cas_case pmem workload =
  let registry = Runtime.Registry.create () in
  let rcas = ref None in
  let handle () = Option.get !rcas in
  Recoverable.Cas_op.register_attempt registry ~id:cas_attempt_id handle;
  Recoverable.Cas_op.register_cas registry ~id:cas_id
    ~attempt_id:cas_attempt_id handle;
  let nprocs = workload.Workload.workers in
  (* The kind picks the CAS variant: [Rcas_buggy] is the paper's E3
     planted bug (recovery without the announcement matrix). *)
  let variant =
    match workload.Workload.kind with
    | Workload.Rcas_buggy -> Rcas.Buggy
    | _ -> Rcas.Correct
  in
  {
    registry;
    init =
      (fun sys ->
        let base = Heap.alloc (System.heap sys) (Rcas.region_size ~nprocs) in
        rcas :=
          Some
            (Rcas.create pmem ~base ~nprocs ~init:workload.Workload.init
               ~variant);
        System.set_root sys base);
    reattach =
      (fun sys ->
        rcas :=
          Some (Rcas.attach pmem ~base:(root_exn sys) ~nprocs ~variant));
    reclaim = (fun sys -> [ root_exn sys ]);
    submit_op =
      (fun sys _index -> function
        | Workload.Cas (e, d) ->
            submit sys ~func_id:cas_id ~args:(Value.of_int2 e d)
        | _ -> invalid_arg "Harness: non-CAS op in an rcas workload");
    conclude =
      (fun results ->
        match answers_in_order workload results with
        | Error msg -> (Fail msg, None)
        | Ok answers ->
            let history =
              cas_history workload answers ~final:(Rcas.read (handle ()))
            in
            (check_cas history, Some history));
    digest = (fun () -> string_of_int (Rcas.read (handle ())));
  }

(* The planted bug: a recoverable counter whose recover blindly re-runs
   the body instead of consulting evidence.  A crash after the increment
   persisted but before the frame's answer did makes recovery increment
   again — exactly the class of bug the fuzzer exists to find. *)
let faulty_case pmem workload =
  let registry = Runtime.Registry.create () in
  let area = ref Offset.null in
  let body ctx _args =
    ignore ctx;
    let v = Pmem.read_int pmem !area in
    Pmem.write_int pmem !area (v + 1);
    Pmem.flush pmem ~off:!area ~len:8;
    Int64.of_int (v + 1)
  in
  Runtime.Registry.register registry ~id:bump_id ~name:"fuzz.faulty_bump"
    ~body
    ~recover:(Runtime.Registry.completing body);
  {
    registry;
    init =
      (fun sys ->
        let base = Heap.alloc (System.heap sys) 64 in
        Pmem.write_int pmem base 0;
        Pmem.flush pmem ~off:base ~len:8;
        area := base;
        System.set_root sys base);
    reattach = (fun sys -> area := root_exn sys);
    reclaim = (fun sys -> [ root_exn sys ]);
    submit_op =
      (fun sys _index -> function
        | Workload.Bump -> submit sys ~func_id:bump_id ~args:Bytes.empty
        | _ -> invalid_arg "Harness: non-bump op in a faulty workload");
    conclude =
      (fun results ->
        let expected = List.length workload.Workload.ops in
        let got = Pmem.read_int pmem !area in
        let verdict =
          let* _answers = answers_in_order workload results in
          if got = expected then Pass
          else
            Fail
              (Printf.sprintf "faulty counter: expected %d, got %d" expected
                 got)
        in
        (verdict, None));
    digest = (fun () -> string_of_int (Pmem.read_int pmem !area));
  }

(* The correct twin of the planted bug: op [i] moves the counter from [i]
   to [i + 1], and both body and recovery first read the counter — if it
   already reached [i + 1] the work persisted and only the answer is
   (re)produced.  On the cached device this read-guard makes recovery
   crash-safe, and it is what a broken flush coalescer violates: a
   believed-complete op whose write-back was forgotten leaves a stale
   counter, the next op's guard misfires, and the sequential oracle
   reports the divergence. *)
let rcounter_case pmem workload =
  let registry = Runtime.Registry.create () in
  let area = ref Offset.null in
  let body _ctx args =
    let i = Value.to_int args in
    let v = Pmem.read_int pmem !area in
    if v >= i + 1 then Int64.of_int (i + 1)
    else begin
      Pmem.write_int pmem !area (i + 1);
      Pmem.flush pmem ~off:!area ~len:8;
      Int64.of_int (i + 1)
    end
  in
  Runtime.Registry.register registry ~id:rbump_id ~name:"fuzz.rcounter_bump"
    ~body
    ~recover:(Runtime.Registry.completing body);
  {
    registry;
    init =
      (fun sys ->
        let base = Heap.alloc (System.heap sys) 64 in
        Pmem.write_int pmem base 0;
        Pmem.flush pmem ~off:base ~len:8;
        area := base;
        System.set_root sys base);
    reattach = (fun sys -> area := root_exn sys);
    reclaim = (fun sys -> [ root_exn sys ]);
    submit_op =
      (fun sys index -> function
        | Workload.Bump ->
            submit sys ~func_id:rbump_id ~args:(Value.of_int index)
        | _ -> invalid_arg "Harness: non-bump op in an rcounter workload");
    conclude =
      (fun results ->
        let expected = List.length workload.Workload.ops in
        let got = Pmem.read_int pmem !area in
        let verdict =
          let* answers = answers_in_order workload results in
          let rec check i = function
            | [] ->
                if got = expected then Pass
                else
                  Fail
                    (Printf.sprintf "rcounter: expected %d, got %d" expected
                       got)
            | a :: rest ->
                if Int64.equal a (Int64.of_int (i + 1)) then check (i + 1) rest
                else
                  Fail
                    (Printf.sprintf
                       "rcounter: op %d answered %Ld, expected %d" i a (i + 1))
          in
          check 0 answers
        in
        (verdict, None));
    digest =
      (fun () ->
        (* The digest reads the {e persistent} image, not the cache: the
           cached value self-heals (every op writes its own ordinal), but a
           forgotten write-back leaves the persistent counter stale — which
           is precisely the divergence the equivalence check must see. *)
        Int64.to_string
          (Bytes.get_int64_le
             (Pmem.peek_persistent pmem ~off:!area ~len:8)
             0));
  }

let case_of pmem (workload : Workload.t) =
  match workload.kind with
  | Workload.Rstack -> stack_case pmem workload
  | Workload.Rqueue -> queue_case pmem workload
  | Workload.Rmap -> map_case pmem workload
  | Workload.Rcas | Workload.Rcas_buggy -> cas_case pmem workload
  | Workload.Faulty -> faulty_case pmem workload
  | Workload.Rcounter -> rcounter_case pmem workload

let default_device_size = 1 lsl 21
let max_crashes = 1000

let run_once ?(decide = fun () -> Coop.default_decision)
    ?(device_size = default_device_size) ?(flush_mode = Pmem.Eager)
    ?(break_drain = false) ?(sabotage = false)
    ?(observer = fun (_ : event) -> ()) (workload : Workload.t)
    (schedule : Schedule.t) =
  (* Section 5's cache-less model for the real structures (they are built
     for auto-flush devices in their own test suites); the two counters
     manage their own flushes on a cached device — the only device where
     flush coalescing has observable persistence effects. *)
  let auto_flush =
    match workload.kind with
    | Workload.Faulty | Workload.Rcounter -> false
    | _ -> true
  in
  let pmem = Pmem.create ~auto_flush ~flush_mode ~size:device_size () in
  (* Every era's workers run as cooperative fibers: the schedule's
     interleave prefix picks the worker at each scheduling point, across
     eras, and a fresh policy picks past it.  Each [Run] choice is kept;
     the trailing ones the default policy would make anyway are dropped
     when the outcome reports them, since replay re-makes them. *)
  let policy = decide () in
  let prefix = ref schedule.Schedule.interleave in
  let taken = ref [] in
  let decide (p : Coop.point) =
    let d =
      match !prefix with
      | j :: rest ->
          prefix := rest;
          (* A prefix naming a finished worker (a hand-edited file?)
             degrades to the policy rather than wedge the run. *)
          if List.mem j p.Coop.enabled then Coop.Run j else policy p
      | [] -> policy p
    in
    (match d with
    | Coop.Run j -> taken := (j, d = Coop.default_decision p) :: !taken
    | Coop.Crash_here -> ());
    observer (Decision (p, d));
    d
  in
  let interleave () =
    let rec drop_defaults = function
      | (_, true) :: rest -> drop_defaults rest
      | choices -> choices
    in
    List.rev_map fst (drop_defaults !taken)
  in
  let spawn = Coop.spawn ~crash_ctl:(Pmem.crash_ctl pmem) ~decide in
  let case = case_of pmem workload in
  let config =
    {
      System.workers = workload.workers;
      stack_kind = workload.stack;
      task_capacity = max 1 (List.length workload.ops);
      task_max_args = 24;
    }
  in
  let eras = ref 0 in
  let crash_points = ref [] in
  let extern_observer = observer in
  let observer ev =
    (match ev with
    | Runtime.Driver.Era_armed { era; _ } -> eras := era
    | Runtime.Driver.Crash_fired { era; at_op } ->
        crash_points := (era, at_op) :: !crash_points
    | Runtime.Driver.Recovery_repaired _ -> ());
    extern_observer (Driver ev)
  in
  let submit sys =
    (* Sabotage arms here, after persisting every still-pending setup
       line, so the forgotten write-backs land on workload-era state.
       Every subsequent drain is forgotten, not just one: losing a single
       metadata line is a fault the checksummed recovery paths repair by
       design, and losing a single data line is indistinguishable from an
       eager crash before its flush — the equivalence check would
       vacuously certify either.  A drain that never persists anything,
       though, lets late writes (a task's done marker) reach the image
       while earlier ones (the value it covers) never do — states eager
       flushing cannot produce. *)
    if break_drain then begin
      Pmem.drain_all pmem;
      Pmem.unsafe_break_drain ~skip:max_int pmem
    end;
    (* Media faults arm here too, for the same reason: aiming tear/bitflip
       at the formatted image's metadata regions requires the system to
       exist, and a flip landing mid-format would only test the
       formatter.  The bitflip targets are the checksummed metadata
       regions, where detection is guaranteed — the no-silent-corruption
       oracle is meaningful there. *)
    if Schedule.has_faults schedule then
      Pmem.arm_faults
        ~targets:(System.metadata_regions sys)
        pmem
        (Schedule.fault_plan schedule);
    (match schedule.Schedule.kill with
    | Some plan -> Crash.arm_kill (Pmem.crash_ctl pmem) plan
    | None -> ());
    List.iteri (fun index op -> case.submit_op sys index op) workload.ops
  in
  let recovery = ref Runtime.Recovery_report.empty in
  let finish ?(fingerprint = "") verdict history =
    {
      verdict;
      stats = { eras = !eras; crashes = List.length !crash_points };
      crash_points = List.rev !crash_points;
      history;
      fingerprint;
      recovery = !recovery;
      interleave = interleave ();
    }
  in
  (* Every completed recovery re-checks the heap's structural invariants
     (block tiling, and a free index naming only blocks the tiling holds
     free) before the workload resumes — a crash schedule that corrupts
     the sharded allocator fails here even if the structure's own answers
     happen to stay consistent.  The check runs after the sweep that ends
     the recovery, so an arena the sweep quarantined passes as reported
     damage. *)
  let check_heap sys =
    match Heap.check (System.heap sys) with
    | Ok () -> ()
    | Error msg -> failwith ("heap invariant after recovery: " ^ msg)
  in
  let execute () =
    match
      Runtime.Driver.run_to_completion pmem ~registry:case.registry ~config
        ~submit ~init:case.init ~reattach:case.reattach ~recovered:check_heap
        ~reclaim:case.reclaim
        ~plan:(fun ~era -> Schedule.plan_for schedule ~era)
        ~observer ~max_crashes ~spawn ()
    with
    | report ->
        recovery := report.Runtime.Driver.recovery;
        let verdict, history = case.conclude report.Runtime.Driver.results in
        (* The fingerprint canonicalises the run's surviving end state: the
           structure digest plus every per-op answer in submission order.
           Two runs that end in the same fingerprint are observationally
           indistinguishable to a client, which is exactly the equality the
           eager/coalesced equivalence check needs. *)
        let fingerprint =
          let answers =
            report.Runtime.Driver.results
            |> List.sort (fun (i, _) (j, _) -> compare i j)
            |> List.map (fun (i, a) -> Printf.sprintf "%d:%Ld" i a)
            |> String.concat ","
          in
          Printf.sprintf "%s|%s" (case.digest ()) answers
        in
        finish ~fingerprint verdict history
    | exception Crash.Thread_killed -> finish (Fail "main-thread kill") None
    | exception Runtime.Driver.Unrecoverable { reason; eras; crashes } ->
        (* Damage beyond what recovery can degrade around.  Acceptable only
           for a fault-injecting schedule: the image refused to come back
           rather than silently computing a wrong answer. *)
        finish
          (Fatal (Printf.sprintf "%s (era %d, %d crashes)" reason eras crashes))
          None
    | exception exn ->
        finish (Fail ("exception: " ^ Printexc.to_string exn)) None
  in
  if not sabotage then execute ()
  else begin
    (* Sabotage self-check: run with checksum verification disabled.  A
       campaign whose oracle is worth anything must now start failing. *)
    Nvram.Integrity.unsafe_set_enabled false;
    Fun.protect
      ~finally:(fun () -> Nvram.Integrity.unsafe_set_enabled true)
      execute
  end

let run ?decide ?device_size ?flush_mode ?break_drain ?sabotage ?observer
    workload schedule =
  let run_once =
    run_once ?decide ?device_size ?flush_mode ?break_drain ?sabotage ?observer
      workload
  in
  match run_once schedule with
  | { verdict = Fail "main-thread kill"; _ } ->
      (* The one-shot kill landed on the orchestrating thread — an artifact
         of the simulation, not a finding.  The case degenerates to the
         same schedule without the kill plan.  The rerun starts a fresh
         policy, so it repeats the killed run's choices up to the kill:
         the rerun's recorded choices replay both runs. *)
      run_once { schedule with Schedule.kill = None }
  | outcome -> outcome
