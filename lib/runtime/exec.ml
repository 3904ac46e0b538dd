module Pmem = Nvram.Pmem

type stack =
  | Stack : (module Pstack.Stack_intf.S with type t = 'a) * 'a -> stack

type t = {
  pmem : Pmem.t;
  heap : Nvheap.Heap.t;
  stack : stack;
  registry : t Registry.t;
  worker_id : int;
}

let make ~pmem ~heap ~stack ~registry ~worker_id =
  { pmem; heap; stack; registry; worker_id }

type probe =
  | Op_invoked of { worker : int; func_id : int }
  | Op_responded of { worker : int; func_id : int }
  | Recovery_pass of { worker : int; frames : int }

(* A plain mutable cell, like [Crash.set_scheduler]: only single-threaded
   model-checking runs install a probe, so there is no contention; the
   free-running hot path pays one load and a branch. *)
let probe_hook : (probe -> unit) option ref = ref None

let set_probe f = probe_hook := f

let emit_probe p = match !probe_hook with None -> () | Some f -> f p

let push t ~func_id ~args =
  let (Stack ((module S), s)) = t.stack in
  S.push s ~func_id ~args

let pop t =
  let (Stack ((module S), s)) = t.stack in
  S.pop s

let top t =
  let (Stack ((module S), s)) = t.stack in
  S.top s

let top_offset t =
  let (Stack ((module S), s)) = t.stack in
  S.top_offset s

let under_top_offset t =
  let (Stack ((module S), s)) = t.stack in
  S.under_top_offset s

let stack_depth t =
  let (Stack ((module S), s)) = t.stack in
  S.depth s

let live_blocks t =
  let (Stack ((module S), s)) = t.stack in
  S.live_blocks s

(* Deposit the callee's answer in the caller's frame and pop the callee.
   The answer must be flushed before the stack end moves backward
   (Section 4.2): [Frame.write_answer] flushes, and the pop's own
   single-byte flush is the linearization of the completion. *)
let return_and_pop t answer =
  Pstack.Frame.write_answer t.pmem ~frame:(under_top_offset t) answer;
  pop t

let call t ~func_id ~args =
  let entry = Registry.find_exn t.registry func_id in
  let invoke () =
    emit_probe (Op_invoked { worker = t.worker_id; func_id });
    push t ~func_id ~args;
    let answer = entry.Registry.body t args in
    return_and_pop t answer;
    (* Completion linearization (Section 3.4): the pop's one-byte flush is
       the linearization point, so on a coalescing device the call's
       persistence points must take effect before the answer escapes to the
       caller.  No-op on an eager device. *)
    Pmem.persist_barrier t.pmem;
    (* Counted on return: a call a crash aborts is not an op. *)
    Obs.Counters.incr Obs.Probe.counters Ops;
    emit_probe (Op_responded { worker = t.worker_id; func_id });
    answer
  in
  if Obs.Config.enabled () then begin
    let t0_ns = Obs.Config.now_ns () in
    Obs.Trace.record (Obs.Trace.Op_begin { func_id });
    match invoke () with
    | answer ->
        Obs.Probe.record_latency Obs.Probe.Exec_call ~t0_ns;
        Obs.Trace.record (Obs.Trace.Op_end { func_id });
        answer
    | exception e ->
        (* A crash aborts the op; close the trace span so exports stay
           balanced, but record no latency for the unfinished call. *)
        Obs.Trace.record (Obs.Trace.Op_end { func_id });
        raise e
  end
  else invoke ()

let last_answer t =
  Pstack.Frame.read_answer t.pmem ~frame:(top_offset t)

let clear_last_answer t =
  Pstack.Frame.clear_answer t.pmem ~frame:(top_offset t)

let recover t =
  emit_probe (Recovery_pass { worker = t.worker_id; frames = stack_depth t });
  let obs = Obs.Config.enabled () in
  let t0_ns = Obs.Probe.start () in
  if obs then
    Obs.Trace.record (Obs.Trace.Recovery_begin { worker = t.worker_id });
  let finish_span ~completed =
    (* A pass interrupted by a fresh crash closes its trace span but neither
       counts nor contributes a latency sample. *)
    if completed then begin
      Obs.Counters.incr Obs.Probe.counters Recovery_passes;
      Obs.Probe.stop Exec_recover t0_ns
    end;
    if obs then
      Obs.Trace.record (Obs.Trace.Recovery_end { worker = t.worker_id })
  in
  let rec drain () =
    match top t with
    | None -> ()
    | Some (_off, frame) ->
        let entry = Registry.find_exn t.registry frame.Pstack.Frame.func_id in
        (* The recover function may itself perform nested [call]s; they
           push and pop above this frame, leaving it on top again. *)
        (match entry.Registry.recover t frame.Pstack.Frame.args with
        | Registry.Complete answer -> return_and_pop t answer
        | Registry.Rolled_back ->
            (* The invocation never happened: leave no answer behind so the
               caller's recovery re-invokes rather than resumes. *)
            Pstack.Frame.clear_answer t.pmem ~frame:(under_top_offset t);
            pop t);
        drain ()
  in
  (match drain () with
  | () ->
      (* The recovery pass externalises its repairs the same way a call
         externalises its answer. *)
      Pmem.persist_barrier t.pmem;
      finish_span ~completed:true
  | exception e ->
      finish_span ~completed:false;
      raise e)
