(** Along-the-path trace properties for the model checker.

    Terminal-state oracles ([Fuzz.Harness] verdicts, user checks) see only
    where an execution {e ended}; the paper's NRSL obligations are about
    what happens {e along} the way — "no response escapes before its
    effects persist", "every crash is followed by a recovery pass that
    re-persists its repair".  This module gives the explorer a typed event
    stream and monitors over it (in the OPPAS/POMC style of checking
    properties on the paths the reduced search actually walks), fed from
    three exact sources: decision-time access footprints
    ({!Runtime.Coop.point}), the runtime's execution probe
    ([Runtime.Exec.set_probe]) and the harness crash observer.  Monitors
    are deterministic and synchronous — no sampling, no ring buffer — so a
    flagged path is replayable. *)

type event =
  | Invoked of { worker : int; func_id : int }
      (** A call is about to push its invocation frame. *)
  | Responded of { worker : int; func_id : int }
      (** A call persisted its completion and returns its answer. *)
  | Access of { worker : int; access : Nvram.Crash.access }
      (** The worker executes a store/flush/CAS with this footprint. *)
  | Crashed of { era : int }  (** The whole-system crash fired. *)
  | Recovery of { worker : int; frames : int }
      (** A recovery pass starts over [frames] interrupted frames. *)

val pp_event : Format.formatter -> event -> unit

type monitor = {
  step : event -> string option;
      (** [Some msg] is a violation; the checker latches the first. *)
  finish : unit -> string option;
      (** End-of-stream obligations ([Some msg] = violation). *)
}

type t
(** A named property: a recipe for fresh per-execution monitors. *)

val name : t -> string

val always : name:string -> (unit -> event -> string option) -> t
(** [always ~name make] holds when no event ever violates: [make ()] runs
    per execution and returns the (stateful) step function; there is no
    end-of-stream obligation. *)

val eventually_within_era :
  name:string ->
  trigger:(event -> string option) ->
  witness:(event -> bool) ->
  deadline:(event -> bool) ->
  t
(** [eventually_within_era ~name ~trigger ~witness ~deadline]: whenever
    [trigger] returns [Some what], an obligation [what] is armed (a later
    trigger renews it); a [witness] event discharges it; a [deadline]
    event — or the end of the stream — while armed is a violation.  Events
    are tested witness-first, so an event that is both witness and
    deadline discharges. *)

val conj : name:string -> t list -> t
(** All component properties, first violation wins, under one name. *)

val response_implies_persist : t
(** No worker responds while a cache line it stored to is still volatile.
    Discharge is the {e program's} covering flush (or an auto-flush
    store): on a coalescing device the deferred write-back is certified
    separately by [check_equivalence], so a program-issued flush counts
    here even though the device defers it. *)

val crash_implies_recovery_repersists : t
(** Every crash is followed by a recovery pass before any new invocation;
    every pass over a non-empty stack re-persists its repair (the
    answer/abort marker of Section 4) before that worker invokes or
    responds again. *)

val all : t list
(** The shipped properties, in the order above. *)

val find : string -> t option
(** Look a shipped property up by name (the [--prop] flag). *)

val sabotage_drop_flushes : event -> event option
(** Drop program-issued flush events — the seeded self-check: with
    flushes hidden, {!response_implies_persist} must flag a
    cache-managed workload's first response. *)

type checker = {
  feed : event -> unit;
  result : unit -> (string * string) option;
      (** First violation as [(property name, message)]. *)
}

val run : ?sabotage:bool -> t list -> checker
(** Fresh monitors for one execution; [sabotage] filters the stream
    through {!sabotage_drop_flushes} before the monitors see it. *)
