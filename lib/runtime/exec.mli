(** The call protocol and the per-stack recovery algorithm.

    This module ties a worker's persistent stack to the function registry:

    - {!call} implements a function invocation (Sections 3.4 and 4.2): push
      the callee's frame (the single-byte marker flush linearizes the
      invocation), run the body, deposit the small answer in the {e
      caller}'s frame answer slot, flush it, and pop (the single-byte
      marker flush linearizes the completion);
    - {!recover} implements one recovery thread of Section 4.3: walk the
      stack from top to bottom, run each frame's recover function, then pop
      the frame — so a repeated failure resumes where the previous recovery
      was interrupted rather than restarting it.

    A context is not thread-safe: each worker owns one. *)

type stack =
  | Stack : (module Pstack.Stack_intf.S with type t = 'a) * 'a -> stack
      (** A persistent stack packaged with its implementation, so the
          runtime works with any of the three stack variants. *)

type t = {
  pmem : Nvram.Pmem.t;
  heap : Nvheap.Heap.t;
  stack : stack;
  registry : t Registry.t;
  worker_id : int;
}

val make :
  pmem:Nvram.Pmem.t ->
  heap:Nvheap.Heap.t ->
  stack:stack ->
  registry:t Registry.t ->
  worker_id:int ->
  t

(** {1 Execution probe}

    Typed notifications at the protocol's observable moments, consumed by
    the model checker's trace-property oracles (Mc.Prop).  Orthogonal to
    the [Obs] tracing pipeline: probes are exact and synchronous (no ring
    buffer, no timestamps, never dropped), which along-the-path property
    checking requires; [Obs] traces are for humans and profilers. *)

type probe =
  | Op_invoked of { worker : int; func_id : int }
      (** {!call} is about to push the invocation frame. *)
  | Op_responded of { worker : int; func_id : int }
      (** {!call} has persisted the completion (post-barrier) and is about
          to return the answer to the caller. *)
  | Recovery_pass of { worker : int; frames : int }
      (** {!recover} starts a pass over a stack currently holding [frames]
          interrupted frames (0 = nothing to repair). *)

val set_probe : (probe -> unit) option -> unit
(** [set_probe (Some f)] installs a global probe callback; [None] removes
    it.  Like [Crash.set_scheduler], not thread-safe: intended for
    single-threaded cooperative model-checking runs only, and
    allocation-free when disabled. *)

val call : t -> func_id:int -> args:bytes -> int64
(** [call t ~func_id ~args] invokes the registered function on this
    worker's persistent stack and returns its small answer.  Nested calls
    from within the body use the same context.

    @raise Registry.Unknown_function if [func_id] is not registered. *)

val last_answer : t -> int64 option
(** [last_answer t] is the answer slot of the currently executing
    function's own frame — set by its most recently completed callee,
    [None] if no callee has completed since the frame was pushed (or since
    {!clear_last_answer}).  Called outside any function, it reads the dummy
    frame's slot. *)

val clear_last_answer : t -> unit

val stack_depth : t -> int
val live_blocks : t -> Nvram.Offset.t list

val recover : t -> unit
(** [recover t] completes every function that was executing on this stack
    when the crash hit: from top to bottom, run the frame's recover
    function, deposit its answer in the caller's frame, pop.  Returns when
    only the dummy frame remains.  Safe to re-run after repeated
    failures. *)
