(* An in-process replica of bin/nvkv_server.exe for the traced run.

   It makes the same public calls as the server's fresh path, in the same
   order and with the same configuration: [Backend.file], an eager
   [Pmem.create], the [Map_op]/[Queue_op] registrations plus the
   exactly-once dispatch ([Dedup.lookup] -> inner [Exec.call] ->
   [Dedup.record]), [System.create], [Runtime.Service] and a [Net.Server]
   in a domain of its own.  The only difference is the optional [stamps]
   array: when given, the handler and the dispatch body write timestamps at
   every layer boundary they cross, and the load generator turns them into
   spans.  A test pins the replica to the real server by comparing
   answers.

   The same module reads finished images offline (space amplification and
   the final-state oracle) and replays a restart's recovery on a copy of a
   killed server's image, timing each step. *)

module Pmem = Nvram.Pmem
module Backend = Nvram.Backend
module Offset = Nvram.Offset
module Integrity = Nvram.Integrity
module Heap = Nvheap.Heap
module System = Runtime.System
module Service = Runtime.Service
module Registry = Runtime.Registry
module Exec = Runtime.Exec
module Value = Runtime.Value
module Rmap = Recoverable.Rmap
module Rqueue = Recoverable.Rqueue
module Map_op = Recoverable.Map_op
module Queue_op = Recoverable.Queue_op
module Dedup = Recoverable.Dedup
module Wire = Net.Wire
module Server = Net.Server

(* The server's command line in bench runs: --size 67108864 --workers 2
   --nclients 33, default buckets. *)
let size = 67108864
let workers = 2
let buckets = 64

let config =
  {
    System.workers;
    stack_kind = System.Bounded_stack 8192;
    task_capacity = 64;
    task_max_args = 64;
  }

let dispatch_id = 20
let put_attempt_id = 21
let put_id = 22
let remove_attempt_id = 23
let remove_id = 24
let find_id = 25
let enq_attempt_id = 26
let enq_id = 27
let deq_attempt_id = 28
let deq_id = 29
let stale_answer = Int64.add Int64.min_int 1L

(* ------------------------------------------------------------------ *)
(* Layer-boundary timestamps                                           *)
(* ------------------------------------------------------------------ *)

(* One row of stamps per client; a client has one request in flight, so
   the row always belongs to its current request. *)
let s_handler = 0 (* Net.Server called the handler *)
let s_submit = 1 (* just before Service.submit *)
let s_body = 2 (* dispatch body entered on a worker *)
let s_lookup0 = 3
let s_lookup1 = 4
let s_inner0 = 5
let s_inner1 = 6
let s_record1 = 7 (* Dedup.record returned; it started at [s_inner1] *)
let s_body_end = 8 (* dispatch body about to return *)
let s_k = 9 (* Service handed the answer to the continuation *)
let s_depth = 10 (* Service.pending at submit (a count, not a time) *)
let nstamps = 11

let stamps () = Array.make (Workload.server_slots * nstamps) 0

let stamp st client i =
  match st with
  | Some a -> a.((client * nstamps) + i) <- Stats.now_ns ()
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The server's directory block and dispatch                           *)
(* ------------------------------------------------------------------ *)

let dir_magic = 0x4E564B5644495231L
let dir_size = 56

type directory = {
  map_base : Offset.t;
  queue_base : Offset.t;
  dedup_base : Offset.t;
  buckets : int;
  nclients : int;
}

let dir_crc d =
  List.fold_left Integrity.fnv64_int64 Integrity.fnv64_init
    [
      dir_magic;
      Int64.of_int (Offset.to_int d.map_base);
      Int64.of_int (Offset.to_int d.queue_base);
      Int64.of_int (Offset.to_int d.dedup_base);
      Int64.of_int d.buckets;
      Int64.of_int d.nclients;
    ]

let write_dir pmem ~dir d =
  Pmem.write_int64 pmem dir dir_magic;
  Pmem.write_int pmem (Offset.add dir 8) (Offset.to_int d.map_base);
  Pmem.write_int pmem (Offset.add dir 16) (Offset.to_int d.queue_base);
  Pmem.write_int pmem (Offset.add dir 24) (Offset.to_int d.dedup_base);
  Pmem.write_int pmem (Offset.add dir 32) d.buckets;
  Pmem.write_int pmem (Offset.add dir 40) d.nclients;
  Pmem.write_int64 pmem (Offset.add dir 48) (dir_crc d);
  Pmem.flush pmem ~off:dir ~len:dir_size

let read_dir pmem ~dir =
  let d =
    {
      map_base = Offset.of_int (Pmem.read_int pmem (Offset.add dir 8));
      queue_base = Offset.of_int (Pmem.read_int pmem (Offset.add dir 16));
      dedup_base = Offset.of_int (Pmem.read_int pmem (Offset.add dir 24));
      buckets = Pmem.read_int pmem (Offset.add dir 32);
      nclients = Pmem.read_int pmem (Offset.add dir 40);
    }
  in
  if not (Int64.equal (Pmem.read_int64 pmem dir) dir_magic) then
    failwith "directory magic mismatch"
  else if
    Integrity.enabled ()
    && not (Int64.equal (Pmem.read_int64 pmem (Offset.add dir 48)) (dir_crc d))
  then failwith "directory checksum mismatch"
  else d

let register_dispatch ?stamps registry dedup_handle =
  let parse args =
    match Value.to_ints args with
    | [ client; seq; opcode; a; b ] -> (client, seq, opcode, a, b)
    | _ -> invalid_arg "nvkv.dispatch: malformed arguments"
  in
  let inner_call ctx ~opcode ~a ~b =
    match opcode with
    | 1 -> Exec.call ctx ~func_id:put_id ~args:(Value.of_int2 a b)
    | 2 -> Exec.call ctx ~func_id:find_id ~args:(Value.of_int a)
    | 3 -> Exec.call ctx ~func_id:remove_id ~args:(Value.of_int a)
    | 4 -> Exec.call ctx ~func_id:enq_id ~args:(Value.of_int a)
    | 5 -> Exec.call ctx ~func_id:deq_id ~args:Bytes.empty
    | _ -> invalid_arg (Printf.sprintf "nvkv.dispatch: opcode %d" opcode)
  in
  let hit_recorded () =
    if Obs.Config.enabled () then
      Obs.Counters.incr_dedup_hits Obs.Probe.counters
  in
  let body ctx args =
    let client, seq, opcode, a, b = parse args in
    stamp stamps client s_body;
    let dedup = dedup_handle () in
    stamp stamps client s_lookup0;
    let hit = Dedup.lookup dedup ~client ~seq in
    stamp stamps client s_lookup1;
    let answer =
      match hit with
      | Dedup.Hit answer ->
          hit_recorded ();
          answer
      | Dedup.Stale -> stale_answer
      | Dedup.New ->
          stamp stamps client s_inner0;
          let answer = inner_call ctx ~opcode ~a ~b in
          stamp stamps client s_inner1;
          Dedup.record dedup ~client ~seq ~answer;
          stamp stamps client s_record1;
          answer
    in
    stamp stamps client s_body_end;
    answer
  in
  let recover ctx args =
    let client, seq, opcode, a, b = parse args in
    let dedup = dedup_handle () in
    Registry.Complete
      (match Dedup.lookup dedup ~client ~seq with
      | Dedup.Hit answer ->
          hit_recorded ();
          answer
      | Dedup.Stale -> stale_answer
      | Dedup.New -> (
          match Exec.last_answer ctx with
          | Some answer ->
              Dedup.record dedup ~client ~seq ~answer;
              answer
          | None ->
              let answer = inner_call ctx ~opcode ~a ~b in
              Dedup.record dedup ~client ~seq ~answer;
              answer))
  in
  Registry.register registry ~id:dispatch_id ~name:"nvkv.dispatch" ~body
    ~recover

let make_registry ?stamps () =
  let registry = Registry.create () in
  let map = ref None and queue = ref None and dedup = ref None in
  let mh () = Option.get !map in
  let qh () = Option.get !queue in
  Map_op.register_put registry ~id:put_id ~attempt_id:put_attempt_id mh;
  Map_op.register_remove registry ~id:remove_id ~attempt_id:remove_attempt_id
    mh;
  Map_op.register_find registry ~id:find_id mh;
  Queue_op.register_enqueue registry ~id:enq_id ~attempt_id:enq_attempt_id qh;
  Queue_op.register_dequeue registry ~id:deq_id ~attempt_id:deq_attempt_id qh;
  register_dispatch ?stamps registry (fun () -> Option.get !dedup);
  (registry, map, queue, dedup)

let decode_answer ~opcode answer =
  if Int64.equal answer stale_answer then Wire.Refused Wire.err_stale
  else
    match opcode with
    | 1 | 4 -> Wire.Done
    | 2 -> (
        match Map_op.find_answer answer with
        | Some v -> Wire.Value v
        | None -> Wire.Nothing)
    | 3 -> if Int64.equal answer 0L then Wire.Nothing else Wire.Done
    | 5 -> (
        match Queue_op.dequeue_answer answer with
        | Some v -> Wire.Value v
        | None -> Wire.Nothing)
    | _ -> Wire.Refused Wire.err_bad_request

let handler ?stamps ~service ~dedup ~nclients (req : Wire.request) k =
  let client = req.Wire.client in
  let bad_client = client < 0 || client >= nclients in
  (match stamps with
  | Some a when not bad_client ->
      Array.fill a (client * nstamps) nstamps 0;
      stamp stamps client s_handler
  | _ -> ());
  match req.Wire.op with
  | Wire.Ping -> k Wire.Done
  | Wire.Last_seq ->
      if bad_client then k (Wire.Refused Wire.err_unknown)
      else k (Wire.Value (Dedup.last_seq (dedup ()) ~client))
  | op ->
      if bad_client then k (Wire.Refused Wire.err_unknown)
      else if req.Wire.seq <= 0 then k (Wire.Refused Wire.err_bad_request)
      else
        let opcode, a, b =
          match op with
          | Wire.Put (key, value) -> (1, key, value)
          | Wire.Get key -> (2, key, 0)
          | Wire.Del key -> (3, key, 0)
          | Wire.Enqueue v -> (4, v, 0)
          | Wire.Dequeue -> (5, 0, 0)
          | Wire.Ping | Wire.Last_seq -> assert false
        in
        (match stamps with
        | Some a -> a.((client * nstamps) + s_depth) <- Service.pending service
        | None -> ());
        stamp stamps client s_submit;
        Service.submit service ~func_id:dispatch_id
          ~args:(Value.of_ints [ client; req.Wire.seq; opcode; a; b ])
          ~k:(function
            | Ok answer ->
                stamp stamps client s_k;
                k (decode_answer ~opcode answer)
            | Error exn ->
                Printf.eprintf "nvbench host: request failed: %s\n%!"
                  (Printexc.to_string exn);
                k (Wire.Refused Wire.err_bad_request))

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  backend : Backend.t;
  heap : Heap.t;
  map : Rmap.t;
  queue : Rqueue.t;
  service : Service.t;
  server : Server.t;
  serving : unit Domain.t;
}

(* The server's fresh path, over an image file that must not exist yet. *)
let start ?stamps ~image ~sock () =
  let nclients = Workload.server_slots in
  let backend = Backend.file ~path:image ~size () in
  let pmem =
    Pmem.create ~auto_flush:false ~flush_mode:Pmem.Eager ~backend ~size ()
  in
  let registry, map, queue, dedup = make_registry ?stamps () in
  let sys = System.create pmem ~registry ~config in
  let heap = System.heap sys in
  let d =
    {
      map_base = Heap.alloc heap (Rmap.region_size ~buckets ~nprocs:workers);
      queue_base = Heap.alloc heap (Rqueue.region_size ~nprocs:workers);
      dedup_base = Heap.alloc heap (Dedup.region_size ~nclients);
      buckets;
      nclients;
    }
  in
  let dir = Heap.alloc heap dir_size in
  map := Some (Rmap.create pmem ~heap ~base:d.map_base ~buckets ~nprocs:workers);
  queue := Some (Rqueue.create pmem ~heap ~base:d.queue_base ~nprocs:workers);
  dedup := Some (Dedup.create pmem ~base:d.dedup_base ~nclients);
  write_dir pmem ~dir d;
  System.set_root sys dir;
  let service = Service.start sys in
  let server =
    Server.create ~addr:(Unix.ADDR_UNIX sock)
      (handler ?stamps ~service ~dedup:(fun () -> Option.get !dedup) ~nclients)
  in
  let serving = Domain.spawn (fun () -> Server.serve server) in
  {
    backend;
    heap;
    map = Option.get !map;
    queue = Option.get !queue;
    service;
    server;
    serving;
  }

let stop t =
  Server.request_stop t.server;
  Domain.join t.serving;
  Service.stop t.service;
  Backend.close t.backend

(* Heap bytes in allocated blocks, headers included. *)
let heap_used heap =
  let used = ref 0 in
  Heap.iter_blocks heap (fun ~off:_ ~size ~allocated ->
      if allocated then used := !used + size);
  !used

(* ------------------------------------------------------------------ *)
(* Offline reading and recovery replay                                 *)
(* ------------------------------------------------------------------ *)

type image = {
  used_bytes : int;
  bindings : (int * int) list;
  queued : int list;
}

(* Read a stopped server's image without attaching a system to it. *)
let read_image path =
  let backend = Backend.file ~path ~size () in
  Fun.protect ~finally:(fun () -> Backend.close backend) (fun () ->
      let pmem = Pmem.create ~auto_flush:false ~backend ~size () in
      let cfg = System.image_config pmem in
      let heap = Heap.open_existing pmem ~base:(System.image_heap_base pmem cfg) in
      let d = read_dir pmem ~dir:(Option.get (System.image_root pmem)) in
      let nprocs = cfg.System.workers in
      let map = Rmap.attach pmem ~heap ~base:d.map_base ~buckets:d.buckets ~nprocs in
      let queue = Rqueue.attach pmem ~heap ~base:d.queue_base ~nprocs in
      {
        used_bytes = heap_used heap;
        bindings = Rmap.bindings map;
        queued = Rqueue.to_list queue;
      })

type replay = {
  load_ns : int;  (** Backend.file + Pmem.create: reading the image *)
  attach_ns : int;  (** System.attach + directory + structure attaches *)
  roots_ns : int;  (** the reclaim closure: live-node root walks *)
  replay_ns : int;  (** System.recover minus the root walks *)
  frames : int;  (** interrupted frames on the worker stacks *)
}

(* The server's restart path, timed step by step, on a copy of an image
   left by a SIGKILL. *)
let replay path =
  let t0 = Stats.now_ns () in
  let backend = Backend.file ~path ~size () in
  let pmem =
    Pmem.create ~auto_flush:false ~flush_mode:Pmem.Eager ~backend ~size ()
  in
  let t1 = Stats.now_ns () in
  Fun.protect ~finally:(fun () -> Backend.close backend) (fun () ->
      let registry, map, queue, dedup = make_registry () in
      if System.image_root pmem = None then failwith "replay: image has no root";
      let sys = System.attach pmem ~registry in
      let nprocs = (System.config sys).System.workers in
      let heap = System.heap sys in
      let dir = Option.get (System.root sys) in
      let d = read_dir pmem ~dir in
      map := Some (Rmap.attach pmem ~heap ~base:d.map_base ~buckets:d.buckets ~nprocs);
      queue := Some (Rqueue.attach pmem ~heap ~base:d.queue_base ~nprocs);
      dedup := Some (Dedup.attach pmem ~base:d.dedup_base ~nclients:d.nclients);
      let frames =
        List.init nprocs (fun i -> Exec.stack_depth (System.ctx sys i))
        |> List.fold_left ( + ) 0
      in
      let t2 = Stats.now_ns () in
      let roots_ns = ref 0 in
      let reclaim () =
        let r0 = Stats.now_ns () in
        let roots =
          dir :: d.map_base :: d.queue_base :: d.dedup_base
          :: (Rmap.live_nodes (Option.get !map)
             @ Rqueue.live_nodes (Option.get !queue))
        in
        roots_ns := Stats.now_ns () - r0;
        roots
      in
      (match System.recover ~reclaim sys with
      | `Completed -> ()
      | `Crashed -> failwith "replay: recovery crashed");
      let t3 = Stats.now_ns () in
      {
        load_ns = t1 - t0;
        attach_ns = t2 - t1;
        roots_ns = !roots_ns;
        replay_ns = t3 - t2 - !roots_ns;
        frames;
      })
