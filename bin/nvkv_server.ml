(* The network-facing recoverable KV/queue service.

   One process serves a persistent image over the nvkv wire protocol
   (lib/net): a select/accept event loop decodes requests and hands every
   effectful one (put, del, enqueue, dequeue) to the worker domains
   through [Runtime.Service], where it executes as a registered
   recoverable function under the exactly-once dispatch wrapper, which
   consults the persistent dedup table ([Recoverable.Dedup]) before
   executing and records the answer before the response frame leaves the
   process.  A get changes nothing, so it has nothing for recovery to
   finish: the loop answers it itself, with no stack frame — the same
   dedup lookup, map read and dedup record, then a persist barrier before
   the ack ([serve_get], DESIGN.md §14).  Kill the process at any moment
   and restart it on the same image: acked operations are observable,
   retried in-flight requests are answered from the dedup record instead
   of re-executing.

   Startup decides fresh-vs-restart by the system superblock and user
   root: a valid superblock whose root cell is published means the
   previous incarnation committed its structures, so the server attaches,
   replays stack recovery and re-attaches the dedup table.  An image with
   no superblock magic (empty file), or one killed before the root was
   set, is formatted from scratch.  A superblock whose checksum fails is
   damage, not a fresh image: the server refuses it (exit 3) rather than
   format over acked data.  The attach-to-serving span is the measured
   recovery time, printed on the READY line (pending lines of a coalesced
   device are written back first, so READY means the root is durable);
   --max-recovery-ms refuses to serve (exit 4) when it exceeds the budget.
   Net.Harness passes that budget on every start, so every restart the
   tests and the crash fuzzer perform runs under it.

   A fresh image sizes the map from the device: Rmap.buckets_for_device
   gives one bucket per 64 KiB, rounded down to a power of two and never
   fewer than 64 (64 buckets on a 2 MiB image, 1024 on 64 MiB), so a
   bigger image holding more keys keeps its chains short.  The directory
   persists the count and a restart attaches with it.

   --kill-at-point K arms a deterministic self-SIGKILL at the Kth
   persistence operation (counted from READY by default), which is how the
   integration tests and the crash fuzzer land kills mid-request at
   reproducible points. *)

module Pmem = Nvram.Pmem
module Backend = Nvram.Backend
module Crash = Nvram.Crash
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

(* Function identifiers (2..19 are used by other harnesses; 20+ is ours). *)
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

(* Wire answers are OCaml ints, so every legitimate dispatch answer lies in
   [-2^62, 2^62) (Value.answer_of_int_option spends Int64.min_int on
   None); min_int + 1 is therefore free to mean "stale request id
   refused". *)
let stale_answer = Int64.add Int64.min_int 1L

(* Directory block: one heap allocation the user root points at, naming the
   three structure regions and their shape.  Checksummed like every other
   piece of metadata; [System.set_root] to it is the create commit point. *)
let dir_magic = 0x4E564B5644495231L (* "NVKVDIR1" *)
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
    Error "directory magic mismatch"
  else if
    Integrity.enabled ()
    && not (Int64.equal (Pmem.read_int64 pmem (Offset.add dir 48)) (dir_crc d))
  then Error "directory checksum mismatch"
  else Ok d

(* The dispatch opcodes.  Each entry names its opcode number, the
   recoverable function it nests, how the dispatch operands [a], [b] become
   that function's arguments, and how its answer becomes a wire result.
   Opcode numbers and function ids are persisted in stack frames (the
   dispatch arguments are [client; seq; opcode; a; b]), so an image written
   by one build is recovered by the next: never renumber. *)
type opcode = {
  code : int;
  func_id : int;
  args : int -> int -> bytes;
  result : int64 -> Wire.result;
}

let first a _ = Value.of_int a
let value_or_nothing = function Some v -> Wire.Value v | None -> Wire.Nothing

let op_put =
  {
    code = 1;
    func_id = put_id;
    args = Value.of_int2;
    result = (fun _ -> Wire.Done);
  }

(* The server answers gets on its event loop without a frame
   ([serve_get]), but [find_id] stays registered and [op_get] keeps code 2:
   an image written by an older build may hold a framed get, and its
   recovery must still find both. *)
let op_get =
  {
    code = 2;
    func_id = find_id;
    args = first;
    result = (fun r -> value_or_nothing (Map_op.find_answer r));
  }

let op_del =
  {
    code = 3;
    func_id = remove_id;
    args = first;
    result = (fun r -> if Int64.equal r 0L then Wire.Nothing else Wire.Done);
  }

let op_enq =
  {
    code = 4;
    func_id = enq_id;
    args = first;
    result = (fun _ -> Wire.Done);
  }

let op_deq =
  {
    code = 5;
    func_id = deq_id;
    args = (fun _ _ -> Bytes.empty);
    result = (fun r -> value_or_nothing (Queue_op.dequeue_answer r));
  }

(* Opcode [code] sits at position [code - 1]. *)
let opcodes = [| op_put; op_get; op_del; op_enq; op_deq |]

let opcode_of_code code =
  if code < 1 || code > Array.length opcodes then
    invalid_arg (Printf.sprintf "nvkv.dispatch: opcode %d" code);
  opcodes.(code - 1)

(* The exactly-once dispatch wrapper.  Body: consult the dedup slot; on
   New, nest the per-op call and record its answer before returning —
   [Exec.call]'s completion protocol then persists our own answer, so by
   the time the response frame is written the record is durable.  Recover:
   the same, except that a completed-but-unrecorded nested call
   ([last_answer]) is recorded instead of re-run; an incomplete one re-runs
   the body, which re-enters the nested recovery. *)
let register_dispatch registry dedup_handle =
  let serve ~resume ctx args =
    match Value.to_ints args with
    | [ client; seq; code; a; b ] -> (
        let dedup = dedup_handle () in
        match Dedup.lookup dedup ~client ~seq with
        | Dedup.Hit answer ->
            Obs.Counters.incr_dedup_hits Obs.Probe.counters;
            answer
        | Dedup.Stale -> stale_answer
        | Dedup.New ->
            let answer =
              match if resume then Exec.last_answer ctx else None with
              | Some answer -> answer
              | None ->
                  let o = opcode_of_code code in
                  Exec.call ctx ~func_id:o.func_id ~args:(o.args a b)
            in
            Dedup.record dedup ~client ~seq ~answer;
            answer)
    | _ -> invalid_arg "nvkv.dispatch: malformed arguments"
  in
  Registry.register registry ~id:dispatch_id ~name:"nvkv.dispatch"
    ~body:(serve ~resume:false)
    ~recover:(fun ctx args -> Registry.Complete (serve ~resume:true ctx args))

let make_registry () =
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
  register_dispatch registry (fun () -> Option.get !dedup);
  (registry, map, queue, dedup)

let request_failed exn =
  Printf.eprintf "nvkv_server: request failed: %s\n%!" (Printexc.to_string exn);
  Wire.Refused Wire.err_bad_request

(* A get on the event-loop thread, with no stack frame: the same dedup
   lookup, map read and dedup record the framed dispatch makes, then the
   persist barrier that orders the record before the ack on a coalesced
   device.  The record is the get's one persistent effect, and a torn
   record reads as absent, so a crash at any point leaves nothing for
   recovery to finish: the re-sent get runs again (DESIGN.md §14). *)
let serve_get ~pmem ~map ~dedup ~client ~seq key =
  try
    match Dedup.lookup dedup ~client ~seq with
    | Dedup.Hit answer ->
        Obs.Counters.incr_dedup_hits Obs.Probe.counters;
        op_get.result answer
    | Dedup.Stale -> Wire.Refused Wire.err_stale
    | Dedup.New ->
        let answer = Value.answer_of_int_option (Rmap.find map ~key) in
        Dedup.record dedup ~client ~seq ~answer;
        Pmem.persist_barrier pmem;
        op_get.result answer
  with
  | Crash.Crash_now as e -> raise e
  | exn -> request_failed exn

let handler ~service ~pmem ~map ~dedup ~nclients (req : Wire.request) k =
  let { Wire.client; seq; op } = req in
  let bad_client = client < 0 || client >= nclients in
  match op with
  | Wire.Ping -> k Wire.Done
  | Wire.Last_seq ->
      if bad_client then k (Wire.Refused Wire.err_unknown)
      else k (Wire.Value (Dedup.last_seq (dedup ()) ~client))
  | _ when bad_client -> k (Wire.Refused Wire.err_unknown)
  | _ when seq <= 0 -> k (Wire.Refused Wire.err_bad_request)
  | Wire.Get key ->
      k (serve_get ~pmem ~map:(map ()) ~dedup:(dedup ()) ~client ~seq key)
  | op ->
      let o, a, b =
        match op with
        | Wire.Put (key, value) -> (op_put, key, value)
        | Wire.Del key -> (op_del, key, 0)
        | Wire.Enqueue v -> (op_enq, v, 0)
        | Wire.Dequeue -> (op_deq, 0, 0)
        | Wire.Get _ | Wire.Ping | Wire.Last_seq -> assert false
      in
      Service.submit service ~func_id:dispatch_id
        ~args:(Value.of_ints [ client; seq; o.code; a; b ])
        ~k:(function
          | Ok answer when Int64.equal answer stale_answer ->
              k (Wire.Refused Wire.err_stale)
          | Ok answer -> k (o.result answer)
          | Error exn -> k (request_failed exn))

let now_ms () = Unix.gettimeofday () *. 1000.

let string_of_addr = function
  | Unix.ADDR_UNIX path -> "unix:" ^ path
  | Unix.ADDR_INET (host, port) ->
      Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr host) port

type kill_from = From_ready | From_startup

let run image size sock port workers nclients coalesced kill_at
    kill_from max_recovery_ms obs =
  if obs then Obs.Config.set_enabled true;
  let t_start = now_ms () in
  let backend = Backend.file ~path:image ~size () in
  let pmem =
    Pmem.create ~auto_flush:false
      ~flush_mode:(if coalesced then Pmem.Coalesced else Pmem.Eager)
      ~backend ~size ()
  in
  (* Deterministic self-kill at the Kth persistence operation: the same
     scheduler hook the model checker drives, aimed at a real SIGKILL. *)
  let armed = Atomic.make (kill_at > 0 && kill_from = From_startup) in
  if kill_at > 0 then begin
    let ctl = Pmem.crash_ctl pmem in
    let count = Atomic.make 0 in
    Crash.set_scheduler ctl
      (Some
         (fun _access ->
           ignore (Crash.take_reads ctl);
           if Atomic.get armed then
             if Atomic.fetch_and_add count 1 + 1 = kill_at then
               Unix.kill (Unix.getpid ()) Sys.sigkill))
  end;
  let registry, map, queue, dedup = make_registry () in
  let fresh =
    match System.image_root pmem with
    | Some _ -> false
    | None -> true
    | exception Invalid_argument what ->
        Printf.eprintf "nvkv_server: %s: %s\n%!" image what;
        exit 3
  in
  let sys, nclients =
    if fresh then begin
      let config =
        {
          System.workers;
          stack_kind = System.Bounded_stack 8192;
          task_capacity = 64;
          task_max_args = 64;
        }
      in
      let sys = System.create pmem ~registry ~config in
      let heap = System.heap sys in
      let buckets = Rmap.buckets_for_device (Pmem.size pmem) in
      let d =
        {
          map_base =
            Heap.alloc heap (Rmap.region_size ~buckets ~nprocs:workers);
          queue_base = Heap.alloc heap (Rqueue.region_size ~nprocs:workers);
          dedup_base = Heap.alloc heap (Dedup.region_size ~nclients);
          buckets;
          nclients;
        }
      in
      let dir = Heap.alloc heap dir_size in
      map :=
        Some (Rmap.create pmem ~heap ~base:d.map_base ~buckets ~nprocs:workers);
      queue :=
        Some (Rqueue.create pmem ~heap ~base:d.queue_base ~nprocs:workers);
      dedup := Some (Dedup.create pmem ~base:d.dedup_base ~nclients);
      write_dir pmem ~dir d;
      System.set_root sys dir;
      (sys, nclients)
    end
    else begin
      let sys = System.attach pmem ~registry in
      let workers = (System.config sys).System.workers in
      let heap = System.heap sys in
      let dir = Option.get (System.root sys) in
      let d =
        match read_dir pmem ~dir with
        | Ok d -> d
        | Error what ->
            Printf.eprintf "nvkv_server: %s: %s\n%!" image what;
            exit 3
      in
      map :=
        Some
          (Rmap.attach pmem ~heap ~base:d.map_base ~buckets:d.buckets
             ~nprocs:workers);
      queue :=
        Some (Rqueue.attach pmem ~heap ~base:d.queue_base ~nprocs:workers);
      dedup := Some (Dedup.attach pmem ~base:d.dedup_base ~nclients:d.nclients);
      let reclaim () =
        dir :: d.map_base :: d.queue_base :: d.dedup_base
        :: (Rmap.live_nodes (Option.get !map)
           @ Rqueue.live_nodes (Option.get !queue))
      in
      (match System.recover ~reclaim sys with
      | `Completed -> ()
      | `Crashed -> assert false (* no in-process crash plan is armed *));
      (sys, d.nclients)
    end
  in
  (* READY promises a published root: on a coalesced device the format and
     the recovery may still sit in pending lines, so write them back now. *)
  Pmem.drain_all pmem;
  let recovery_ms = now_ms () -. t_start in
  if Obs.Config.enabled () then
    Obs.Histogram.record
      (Obs.Probe.histogram Obs.Probe.Recovery_span)
      (int_of_float (recovery_ms *. 1e6));
  if max_recovery_ms > 0. && recovery_ms > max_recovery_ms then begin
    Printf.eprintf "nvkv_server: recovery took %.3f ms > budget %.3f ms\n%!"
      recovery_ms max_recovery_ms;
    exit 4
  end;
  let service = Service.start sys in
  let addr =
    match sock with
    | Some path -> Unix.ADDR_UNIX path
    | None -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  in
  let server =
    Server.create ~addr
      (handler ~service ~pmem
         ~map:(fun () -> Option.get !map)
         ~dedup:(fun () -> Option.get !dedup)
         ~nclients)
  in
  let stop_signal _ = Server.request_stop server in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal);
  Printf.printf "READY addr=%s pid=%d fresh=%b recovery_ms=%.3f\n%!"
    (string_of_addr (Server.addr server))
    (Unix.getpid ()) fresh recovery_ms;
  if kill_at > 0 && kill_from = From_ready then Atomic.set armed true;
  Server.serve server;
  Service.stop service;
  let t = Obs.Counters.totals Obs.Probe.counters in
  (* flushes= counts flush calls in either mode: served eagerly or elided
     into pending marks. *)
  Printf.printf
    "STATS conns=%d requests=%d dedup_hits=%d ops=%d flushes=%d writes=%d\n%!"
    t.Obs.Counters.conns_accepted t.Obs.Counters.requests_served
    t.Obs.Counters.dedup_hits t.Obs.Counters.ops
    (t.Obs.Counters.flushes + t.Obs.Counters.flushes_elided)
    t.Obs.Counters.writes;
  0

open Cmdliner

let main_term =
  let image =
    Arg.(
      required
      & opt (some string) None
      & info [ "image" ] ~docv:"PATH" ~doc:"Persistent image file.")
  in
  let size =
    Arg.(
      value
      & opt int (1 lsl 21)
      & info [ "size" ] ~docv:"BYTES" ~doc:"Device size for a fresh image.")
  in
  let sock =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH" ~doc:"Listen on a unix-domain socket.")
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ] ~docv:"N"
          ~doc:
            "Listen on 127.0.0.1:$(docv) (0 picks an ephemeral port, \
             printed on the READY line).  Ignored when $(b,--unix) is \
             given.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N")
  in
  let nclients =
    Arg.(
      value & opt int 16
      & info [ "nclients" ] ~docv:"N" ~doc:"Dedup table slots.")
  in
  let coalesced =
    Arg.(value & flag & info [ "coalesced" ] ~doc:"FliT-style flush mode.")
  in
  let kill_at =
    Arg.(
      value & opt int 0
      & info [ "kill-at-point" ] ~docv:"K"
          ~doc:
            "SIGKILL this process at its $(docv)th persistence operation \
             (0 disables).")
  in
  let kill_from =
    Arg.(
      value
      & opt (enum [ ("ready", From_ready); ("startup", From_startup) ])
          From_ready
      & info [ "kill-from" ] ~docv:"WHEN"
          ~doc:
            "Start counting persistence operations at READY (default) or \
             at process startup (lands kills inside create/recovery).")
  in
  let max_recovery_ms =
    Arg.(
      value & opt float 0.
      & info [ "max-recovery-ms" ] ~docv:"MS"
          ~doc:"Exit 4 if startup recovery exceeds this budget (0 = off).")
  in
  let obs = Arg.(value & flag & info [ "obs" ] ~doc:"Enable observability.") in
  Term.(
    const run $ image $ size $ sock $ port $ workers $ nclients
    $ coalesced $ kill_at $ kill_from $ max_recovery_ms $ obs)

let () =
  let doc = "recoverable KV/queue server over a persistent image" in
  Stdlib.exit (Cmd.eval' (Cmd.v (Cmd.info "nvkv_server" ~doc) main_term))
