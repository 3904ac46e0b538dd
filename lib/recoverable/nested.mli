(** The two-level registration every recoverable operation here uses.

    An {e outer} function persists the operation's recovery scope — a
    freshly allocated node, a fresh sequence number — and passes it as the
    arguments of a nested {e attempt}, so the attempt's frame records
    everything its recover dual needs before the attempt can take effect.
    The attempt leaves evidence; its recover looks for that evidence and
    completes the attempt (paper §2.3).

    The outer recover needs no evidence of its own: if the attempt
    completed, directly or through its own recovery, its answer sits in
    the outer frame ({!Runtime.Exec.last_answer}); if not, the attempt
    frame never became part of the stack, the operation did not take
    effect, and the outer body runs afresh with a new scope.  A scope
    persisted by an interrupted outer body (a node nobody links) is
    reclaimed by the heap's root-based sweep. *)

val register :
  Runtime.Exec.t Runtime.Registry.t ->
  id:int ->
  attempt_id:int ->
  name:string ->
  scope:(Runtime.Exec.t -> bytes -> bytes) ->
  attempt:(Runtime.Exec.t -> bytes -> int64) ->
  recover:(Runtime.Exec.t -> bytes -> int64) ->
  unit
(** [register registry ~id ~attempt_id ~name ~scope ~attempt ~recover]
    registers the attempt at [attempt_id] (body [attempt], recover dual
    [recover], both taking the attempt's arguments) and the outer function
    at [id], whose body calls the attempt with [scope ctx args] and
    returns its answer. *)
