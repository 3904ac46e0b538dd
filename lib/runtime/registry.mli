(** Registry of recoverable functions.

    Section 2.3: every function [F] that accesses the NVRAM comes with a
    dual [F.Recover] taking the same arguments, called after a restart to
    either finish [F] or roll it back.  A persistent stack frame stores
    only the function's unique identifier (Section 3.3); this registry maps
    identifiers back to code so the recovery can re-dispatch.

    Identifiers [0] (the dummy frame) and [1] (the system task wrapper,
    see {!System}) are reserved.

    The registry is parameterised by the execution-context type to avoid a
    cyclic dependency with {!Exec}, which owns that type.

    {b Domain safety.}  The registry is a plain [Hashtbl]: concurrent
    {!find} calls from worker domains are safe {e only} while no
    registration is in flight.  Register every function (and let {!System}
    install its reserved wrapper) before starting workers; never register
    from a task body. *)

type outcome =
  | Complete of int64
      (** The recovery finished the function's execution; the value is
          deposited in the caller's answer slot exactly as a normal return
          would. *)
  | Rolled_back
      (** The recovery undid the function's effects: the invocation is to
          be treated as if it never happened.  The caller's answer slot is
          cleared, so the caller's own recovery re-invokes (Section 2.3:
          "either finish the execution of F or roll it back"). *)

type 'ctx entry = {
  id : int;
  name : string;
  body : 'ctx -> bytes -> int64;
      (** The function itself: receives the deserialized-by-caller argument
          bytes, returns the small (8-byte) answer.  Functions without a
          meaningful result return [0L]. *)
  recover : 'ctx -> bytes -> outcome;
      (** The dual recovery function: must complete or roll back an
          interrupted execution of [body], and must itself tolerate being
          re-run after a repeated failure (Section 2.3). *)
}

type 'ctx t

val create : unit -> 'ctx t

val reserved_task_runner_id : int

val completing : ('ctx -> bytes -> int64) -> 'ctx -> bytes -> outcome
(** [completing f] is the recover function that re-runs [f] to completion —
    the common case for idempotent or evidence-checking recoveries. *)

val register :
  'ctx t ->
  id:int ->
  name:string ->
  body:('ctx -> bytes -> int64) ->
  recover:('ctx -> bytes -> outcome) ->
  unit
(** @raise Invalid_argument if [id] is reserved or already registered. *)

val register_reserved :
  'ctx t ->
  id:int ->
  name:string ->
  body:('ctx -> bytes -> int64) ->
  recover:('ctx -> bytes -> outcome) ->
  unit
(** Same as {!register} but allowed to claim a reserved identifier; for use
    by the system itself. *)

exception Unknown_function of int
(** Raised by {!find_exn} — during recovery it means the persistent stack
    references a function the restarted program did not register. *)

val find : 'ctx t -> int -> 'ctx entry option
val find_exn : 'ctx t -> int -> 'ctx entry
val ids : 'ctx t -> int list
