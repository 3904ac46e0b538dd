module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Integrity = Nvram.Integrity
module Heap = Nvheap.Heap

let src = Logs.Src.create "pstack.system" ~doc:"System modes and recovery"

module Log = (val Logs.src_log src : Logs.LOG)

type stack_kind =
  | Bounded_stack of int
  | Resizable_stack of int
  | Linked_stack of int

type config = {
  workers : int;
  stack_kind : stack_kind;
  task_capacity : int;
  task_max_args : int;
}

let default_config =
  {
    workers = 4;
    stack_kind = Bounded_stack 4096;
    task_capacity = 1024;
    task_max_args = 64;
  }

type t = {
  pmem : Pmem.t;
  config : config;
  registry : Exec.t Registry.t;
  heap : Heap.t;
  tasks : Task.t;
  ctxs : Exec.t array;
}

let config t = t.config
let pmem t = t.pmem
let heap t = t.heap
let tasks t = t.tasks
let ctx t i = t.ctxs.(i)

(* Superblock layout: six 8-byte config fields in [0, 48), the mutable
   user root at 48, and an FNV-64 checksum of the config fields at 56.
   The root cell is outside the checksum — it is rewritten at runtime with
   a single atomic flush and cannot afford a two-word update. *)
let magic = 0x4E565253595331L (* "NVRSYS1" *)
let root_off = Offset.of_int 48
let crc_off = Offset.of_int 56
let superblock_fixed = 64
let anchor_off i = Offset.of_int (superblock_fixed + (8 * i))

let align n a = (n + a - 1) / a * a
let superblock_size workers = align (superblock_fixed + (8 * workers)) 64

let task_base config = Offset.of_int (superblock_size config.workers)

let stacks_base config =
  Offset.add (task_base config)
    (align
       (Task.region_size ~capacity:config.task_capacity
          ~max_args:config.task_max_args)
       64)

let heap_base config =
  match config.stack_kind with
  | Bounded_stack capacity ->
      Offset.add (stacks_base config) (config.workers * align capacity 64)
  | Resizable_stack _ | Linked_stack _ -> stacks_base config

let kind_tag = function
  | Bounded_stack _ -> 0
  | Resizable_stack _ -> 1
  | Linked_stack _ -> 2

let kind_param = function
  | Bounded_stack p | Resizable_stack p | Linked_stack p -> p

let kind_of ~tag ~param =
  match tag with
  | 0 -> Bounded_stack param
  | 1 -> Resizable_stack param
  | 2 -> Linked_stack param
  | _ -> invalid_arg (Printf.sprintf "System: unknown stack kind tag %d" tag)

let superblock_crc config =
  let h = Integrity.fnv64_int64 Integrity.fnv64_init magic in
  let h = Integrity.fnv64_int64 h (Int64.of_int config.workers) in
  let h = Integrity.fnv64_int64 h (Int64.of_int (kind_tag config.stack_kind)) in
  let h =
    Integrity.fnv64_int64 h (Int64.of_int (kind_param config.stack_kind))
  in
  let h = Integrity.fnv64_int64 h (Int64.of_int config.task_capacity) in
  Integrity.fnv64_int64 h (Int64.of_int config.task_max_args)

let write_superblock pmem config =
  Pmem.write_int64 pmem Offset.null magic;
  Pmem.write_int pmem (Offset.of_int 8) config.workers;
  Pmem.write_int pmem (Offset.of_int 16) (kind_tag config.stack_kind);
  Pmem.write_int pmem (Offset.of_int 24) (kind_param config.stack_kind);
  Pmem.write_int pmem (Offset.of_int 32) config.task_capacity;
  Pmem.write_int pmem (Offset.of_int 40) config.task_max_args;
  Pmem.write_int pmem root_off 0;
  Pmem.write_int64 pmem crc_off (superblock_crc config);
  Pmem.flush pmem ~off:Offset.null ~len:superblock_fixed

let read_superblock pmem =
  if not (Int64.equal (Pmem.read_int64 pmem Offset.null) magic) then
    invalid_arg "System.attach: no system superblock on this device";
  let workers = Pmem.read_int pmem (Offset.of_int 8) in
  let tag = Pmem.read_int pmem (Offset.of_int 16) in
  let param = Pmem.read_int pmem (Offset.of_int 24) in
  let task_capacity = Pmem.read_int pmem (Offset.of_int 32) in
  let task_max_args = Pmem.read_int pmem (Offset.of_int 40) in
  let config =
    { workers; stack_kind = kind_of ~tag ~param; task_capacity; task_max_args }
  in
  if
    Integrity.enabled ()
    && not (Int64.equal (Pmem.read_int64 pmem crc_off) (superblock_crc config))
  then begin
    Obs.Counters.incr Obs.Probe.counters Faults_detected;
    invalid_arg "System.attach: superblock checksum mismatch"
  end;
  config

let pack_bounded s = Exec.Stack ((module Pstack.Bounded), s)
let pack_resizable s = Exec.Stack ((module Pstack.Resizable), s)
let pack_linked s = Exec.Stack ((module Pstack.Linked), s)

let bounded_region config i =
  match config.stack_kind with
  | Bounded_stack capacity ->
      let capacity = align capacity 64 in
      (Offset.add (stacks_base config) (i * capacity), capacity)
  | Resizable_stack _ | Linked_stack _ ->
      invalid_arg "System: not a bounded-stack configuration"

let make_stack ?(report = fun _ -> ()) ~fresh pmem config heap i =
  (* Worker [i]'s stack allocates from arena [i]: stack growth never
     contends with another worker's allocator lock.  Frees route by address
     range, so cross-worker reclamation still lands in the owning arena. *)
  let heap = Heap.with_arena heap i in
  let report e = report (Recovery_report.Stack_repair { worker = i; event = e }) in
  match config.stack_kind with
  | Bounded_stack _ ->
      let base, capacity = bounded_region config i in
      pack_bounded
        (if fresh then Pstack.Bounded.create pmem ~base ~capacity
         else Pstack.Bounded.attach ~report pmem ~base ~capacity)
  | Resizable_stack initial_capacity ->
      let anchor = anchor_off i in
      pack_resizable
        (if fresh then
           Pstack.Resizable.create pmem ~heap ~anchor ~initial_capacity ()
         else Pstack.Resizable.attach ~report pmem ~heap ~anchor)
  | Linked_stack block_size ->
      let anchor = anchor_off i in
      pack_linked
        (if fresh then Pstack.Linked.create pmem ~heap ~anchor ~block_size ()
         else
           (* The superblock's kind_param is the configured block size;
              without it a recovered stack would silently chain 256-byte
              default blocks from here on. *)
           Pstack.Linked.attach ~report pmem ~heap ~block_size ~anchor ())

let make_stacks ?report ~fresh pmem config heap =
  Array.init config.workers (make_stack ?report ~fresh pmem config heap)

(* The reserved task wrapper.  Its frame brackets the whole task execution,
   so the completion bookkeeping is covered by recovery: the answer of the
   inner call survives in the wrapper frame's answer slot, and the task
   table's status commit makes [mark_done] idempotent. *)
let install_task_runner registry tasks =
  let run_inner ctx idx =
    Exec.call ctx ~func_id:(Task.func_id tasks idx) ~args:(Task.args tasks idx)
  in
  let body ctx args =
    let idx = Value.to_int args in
    let answer = run_inner ctx idx in
    Task.mark_done tasks idx answer;
    answer
  in
  let recover ctx args =
    let idx = Value.to_int args in
    match Task.status tasks idx with
    | `Done answer -> Registry.Complete answer
    | `Pending ->
        let answer =
          match Exec.last_answer ctx with
          | Some answer ->
              (* The inner call completed (possibly via its own recovery)
                 and deposited its answer in our frame before the crash or
                 during this recovery pass. *)
              answer
          | None ->
              (* Never invoked, or invoked and rolled back: run it (again). *)
              run_inner ctx idx
        in
        Task.mark_done tasks idx answer;
        Registry.Complete answer
  in
  Registry.register_reserved registry ~id:Registry.reserved_task_runner_id
    ~name:"system.task_runner" ~body ~recover

let heap_region pmem config =
  let base = align (Offset.to_int (heap_base config)) 16 in
  let len = (Pmem.size pmem - base) / 16 * 16 in
  if len < 1024 then
    invalid_arg "System: device too small for this configuration";
  (Offset.of_int base, len)

let build pmem config registry heap stacks tasks =
  let ctxs =
    Array.mapi
      (fun i stack ->
        Exec.make ~pmem
          ~heap:(Heap.with_arena heap i)
          ~stack ~registry ~worker_id:i)
      stacks
  in
  install_task_runner registry tasks;
  { pmem; config; registry; heap; tasks; ctxs }

let create pmem ~registry ~config =
  write_superblock pmem config;
  let tasks =
    Task.create pmem ~base:(task_base config) ~capacity:config.task_capacity
      ~max_args:config.task_max_args
  in
  let base, len = heap_region pmem config in
  let heap = Heap.format ~arenas:config.workers pmem ~base ~len in
  let stacks = make_stacks ~fresh:true pmem config heap in
  build pmem config registry heap stacks tasks

let attach ?(report = fun _ -> ()) pmem ~registry =
  let config = read_superblock pmem in
  let tasks = Task.attach pmem ~base:(task_base config) in
  let base, _len = heap_region pmem config in
  (* Walk-free: the heap's one sweep runs at the end of [recover]. *)
  let heap =
    Heap.recover ~report:(fun r -> report (Recovery_report.Heap_repair r)) pmem
      ~base
  in
  let stacks = make_stacks ~report ~fresh:false pmem config heap in
  build pmem config registry heap stacks tasks

let attach_with_report pmem ~registry =
  let items = ref [] in
  let t = attach ~report:(fun it -> items := it :: !items) pmem ~registry in
  (t, Recovery_report.of_items (List.rev !items))

(* Bitflip targets for the fault-injecting fuzzer: every region whose
   damage the recovery paths are guaranteed to detect (checksummed
   metadata), repair around (heap headers, stack frames) or report as
   fatal (superblocks).  The task table and the user root are deliberately
   absent — the user root and the task descriptors carry no checksum (only
   a task's done status checks its answer), so a flip there could silently
   change an answer. *)
let metadata_regions t =
  let regions = ref [] in
  let add off len = regions := (off, len) :: !regions in
  add 0 48;
  (match t.config.stack_kind with
  | Bounded_stack _ ->
      for i = 0 to t.config.workers - 1 do
        let base, capacity = bounded_region t.config i in
        add (Offset.to_int base) capacity
      done
  | Resizable_stack _ | Linked_stack _ ->
      (* Frames live in heap blocks and carry their own CRCs, but they are
         statically indistinguishable from application payloads (which carry
         none) — so for heap-backed stacks only the heap's metadata headers
         below are targeted. *)
      ());
  add (Offset.to_int (Heap.base t.heap)) 32;
  for i = 0 to Heap.arena_count t.heap - 1 do
    add (Offset.to_int (Heap.arena_base t.heap i)) Heap.header_size
  done;
  Array.of_list (List.rev !regions)

let submit t ~func_id ~args = Task.add t.tasks ~func_id ~args
let results t = Task.results t.tasks

let set_root t off =
  Pmem.write_int t.pmem root_off (Offset.to_int off);
  Pmem.flush t.pmem ~off:root_off ~len:8

let root t =
  match Pmem.read_int t.pmem root_off with
  | 0 -> None
  | off -> Some (Offset.of_int off)

exception Worker_failures of (int * exn) list

let () =
  Printexc.register_printer (function
    | Worker_failures failures ->
        Some
          (Printf.sprintf "Runtime.System.Worker_failures [%s]"
             (String.concat "; "
                (List.map
                   (fun (i, exn) ->
                     Printf.sprintf "worker %d: %s" i (Printexc.to_string exn))
                   failures)))
    | _ -> None)

(* Run [f i] on one domain per worker — real OS-level parallelism, one
   runtime lock per domain, so concurrent executions of the paper's
   experiments genuinely race on a multicore host (the device is striped
   precisely so they can).  The crash signal is swallowed (the crashed flag
   is checked afterwards); every other failure is captured per worker and
   re-raised after all workers stopped — all of them, as a
   {!Worker_failures} aggregate when several workers failed, so no
   diagnostic is silently dropped.  A start barrier aligns the domains so
   they truly race: without it the spawn latency serialises short eras and
   concurrency windows never occur. *)
type spawn = (int -> unit) -> int -> unit

(* The default spawn: one domain per worker with a start barrier, so the
   domains truly race.  Bodies never raise (parallel_workers wraps them). *)
let domain_spawn body workers =
  let barrier_mu = Mutex.create () in
  let barrier_cv = Condition.create () in
  let waiting = ref 0 in
  let wait_for_start () =
    Mutex.protect barrier_mu (fun () ->
        incr waiting;
        if !waiting >= workers then Condition.broadcast barrier_cv
        else
          while !waiting < workers do
            Condition.wait barrier_cv barrier_mu
          done)
  in
  let domains =
    Array.init workers (fun i ->
        Domain.spawn (fun () ->
            wait_for_start ();
            body i))
  in
  Array.iter Domain.join domains

let parallel_workers ?(spawn = domain_spawn) t f =
  let failures = Array.make t.config.workers None in
  let body i =
    try f i with
    | Nvram.Crash.Crash_now -> ()
    | exn -> failures.(i) <- Some exn
  in
  spawn body t.config.workers;
  let failed =
    Array.to_list failures
    |> List.mapi (fun i failure -> Option.map (fun exn -> (i, exn)) failure)
    |> List.filter_map Fun.id
  in
  (match failed with
  | [] -> ()
  | [ (_, exn) ] -> raise exn
  | _ :: _ :: _ ->
      List.iter
        (fun (i, exn) ->
          Log.err (fun m ->
              m "worker %d failed: %s" i (Printexc.to_string exn)))
        failed;
      raise (Worker_failures failed));
  if Nvram.Crash.crashed (Pmem.crash_ctl t.pmem) then `Crashed else `Completed

(* Individual crash-recovery (Section 2.2): worker [i] restarts alone while
   the rest of the system keeps running.  The old context's volatile index
   cannot be trusted (the kill may have landed between a device operation
   and the index update), so the stack is re-attached from the device —
   exactly what a restarted process would do — and recovered in place.  A
   repeated kill during this recovery simply restarts it. *)
let rec recover_worker t i =
  Log.info (fun m -> m "individual recovery of worker %d" i);
  t.ctxs.(i) <-
    Exec.make ~pmem:t.pmem
      ~heap:(Heap.with_arena t.heap i)
      ~stack:(make_stack ~fresh:false t.pmem t.config t.heap i)
      ~registry:t.registry ~worker_id:i;
  try Exec.recover t.ctxs.(i) with Nvram.Crash.Thread_killed -> recover_worker t i

let run ?spawn t =
  let queue = Work_queue.create () in
  List.iter (Work_queue.push queue) (Task.pending t.tasks);
  Work_queue.close queue;
  let crash = Pmem.crash_ctl t.pmem in
  let worker i =
    let rec loop () =
      (* The pop below is a race: which worker dequeues the next task is
         scheduling-dependent state the device never sees (the queue is
         volatile).  Announce it to the cooperative scheduler as a
         synthetic always-conflicting access — the negative line range
         cannot overlap any device line, but two pops overlap each other,
         so the partial-order reduction knows pop order matters.  A no-op
         outside model checking (no scheduler installed). *)
      Nvram.Crash.sched_point crash ~kind:Nvram.Crash.Cas ~first_line:(-1)
        ~last_line:(-1) ~persists:false;
      match Work_queue.pop queue with
      | None -> ()
      | Some idx ->
          (* On an individual crash, recover in place and retry the same
             task: if the interrupted wrapper already completed it during
             recovery, the status check skips it (exactly-once); if the
             kill landed before the wrapper frame was pushed, the task was
             never started and must be re-invoked here — the queue entry
             was already consumed.  The context is re-read because an
             individual crash replaces it. *)
          let rec exec_task () =
            try
              match Task.status t.tasks idx with
              | `Done _ -> ()
              | `Pending ->
                  ignore
                    (Exec.call t.ctxs.(i)
                       ~func_id:Registry.reserved_task_runner_id
                       ~args:(Value.of_int idx))
            with Nvram.Crash.Thread_killed ->
              recover_worker t i;
              exec_task ()
          in
          exec_task ();
          loop ()
    in
    loop ()
  in
  parallel_workers ?spawn t worker

let recover ?spawn ?reclaim t =
  let recover_one i =
    try Exec.recover t.ctxs.(i)
    with Nvram.Crash.Thread_killed -> recover_worker t i
  in
  match parallel_workers ?spawn t recover_one with
  | `Crashed -> `Crashed
  | `Completed ->
      (* One sweep per arena ends the recovery: the replay above may have
         freed blocks or dropped the last reference to some, and only now
         are the roots final. *)
      (match reclaim with
      | None -> Heap.sweep t.heap
      | Some extra_roots ->
          let live =
            List.concat_map Exec.live_blocks (Array.to_list t.ctxs)
            @ extra_roots ()
          in
          let freed = Heap.retain t.heap ~live in
          if freed.Heap.blocks > 0 then
            Log.info (fun m ->
                m "reclaimed %d leaked heap block(s) (%d bytes)"
                  freed.Heap.blocks freed.Heap.bytes));
      `Completed

let image_config pmem = read_superblock pmem
let anchor_cell i = anchor_off i

let image_root pmem =
  if not (Int64.equal (Pmem.read_int64 pmem Offset.null) magic) then None
  else
    let _config = read_superblock pmem in
    match Pmem.read_int pmem root_off with
    | 0 -> None
    | off -> Some (Offset.of_int off)

let image_heap_base pmem config =
  let base, _len = heap_region pmem config in
  base

let pp_kind fmt = function
  | Bounded_stack n -> Format.fprintf fmt "bounded(%d B)" n
  | Resizable_stack n -> Format.fprintf fmt "resizable(initial %d B)" n
  | Linked_stack n -> Format.fprintf fmt "linked(block %d B)" n

let pp_image fmt pmem =
  let config = read_superblock pmem in
  Format.fprintf fmt "@[<v>system image (%d bytes device)@," (Pmem.size pmem);
  Format.fprintf fmt "  workers: %d, stacks: %a, tasks: %d max (%d arg bytes)@,"
    config.workers pp_kind config.stack_kind config.task_capacity
    config.task_max_args;
  (match Pmem.read_int pmem root_off with
  | 0 -> Format.fprintf fmt "  user root: (none)@,"
  | r -> Format.fprintf fmt "  user root: @@%d@," r);
  let tasks = Task.attach pmem ~base:(task_base config) in
  let total = Task.count tasks in
  let pending = List.length (Task.pending tasks) in
  Format.fprintf fmt "  tasks: %d submitted, %d pending, %d done@," total
    pending (total - pending);
  List.iter
    (fun i ->
      match Task.status tasks i with
      | `Pending ->
          Format.fprintf fmt "    #%d func=%d PENDING@," i (Task.func_id tasks i)
      | `Done answer ->
          Format.fprintf fmt "    #%d func=%d done answer=%Ld@," i
            (Task.func_id tasks i) answer)
    (List.init (min total 32) Fun.id);
  if total > 32 then Format.fprintf fmt "    ... (%d more)@," (total - 32);
  for i = 0 to config.workers - 1 do
    Format.fprintf fmt "  worker %d stack:@," i;
    let lines =
      match config.stack_kind with
      | Bounded_stack _ ->
          let base, _ = bounded_region config i in
          Pstack.Dump.scan_region pmem ~view:Pstack.Dump.Volatile ~base
      | Resizable_stack _ ->
          let payload = Offset.of_int (Pmem.read_int pmem (anchor_off i)) in
          Pstack.Dump.scan_region pmem ~view:Pstack.Dump.Volatile ~base:payload
      | Linked_stack _ ->
          Pstack.Dump.scan_linked pmem ~view:Pstack.Dump.Volatile
            ~anchor:(anchor_off i)
    in
    List.iter
      (fun line -> Format.fprintf fmt "    %a@," Pstack.Dump.pp_line line)
      lines
  done;
  let heap_base_off, _ = heap_region pmem config in
  let heap = Heap.open_existing pmem ~base:heap_base_off in
  Format.fprintf fmt
    "  heap: %d bytes at %a (%d arenas); %d allocated / %d free blocks; %d \
     free bytes (largest %d)@,"
    (Heap.length heap) Offset.pp (Heap.base heap) (Heap.arena_count heap)
    (Heap.block_count heap ~allocated:true)
    (Heap.block_count heap ~allocated:false)
    (Heap.free_bytes heap) (Heap.largest_free heap);
  Format.fprintf fmt "@]"
