(** Deterministic cooperative execution of system workers as effect-based
    fibers (OCaml 5 effects).

    Each worker body runs as a fiber that performs {!Yield} at the entry of
    every persistence operation — the hook point [Pmem] exposes through
    [Crash.sched_point], which is the same per-operation granularity the
    crash controller counts.  A scheduler loop owns all fibers on one
    thread and asks a [decide] callback, at every such point, which worker
    runs next or whether the simulated system crashes here instead.

    Because the hook fires {e before} the device takes any stripe lock, a
    suspended fiber never holds a device mutex; and because it is installed
    only around fiber steps, orchestrator code between steps runs
    hook-free.  After a crash (decided or externally armed) every fiber is
    drained: resumed once, it dies at its next device operation with
    [Crash_now] — the same prompt-stop behaviour free-running domains
    exhibit — or runs to completion if it touches the device no more.

    {!Driver.run_to_completion} runs on it by default, and the fuzz
    harness, the model checker and the CAS experiment with their own
    policies, so each of their runs is a pure function of its inputs. *)

type _ Effect.t += Yield : unit Effect.t

type decision =
  | Run of int  (** Let this worker execute its next persistence op. *)
  | Crash_here
      (** Crash the system now, before any pending operation executes —
          equivalent to an [At_op (op + 1)] plan at this point. *)

type point = {
  index : int;  (** Decision ordinal within this spawn, from 0. *)
  op : int;
      (** [Crash.ops] at decision time: persistence operations counted
          since the era was armed.  A crash here replays as
          [At_op (op + 1)]. *)
  enabled : int list;  (** Workers that have not finished, ascending. *)
  current : int option;
      (** Worker chosen at the previous decision, if any.  Choosing a
          different {e enabled} worker is a preemption; switching away
          from a finished worker is free. *)
  pending : (int * Nvram.Crash.access) list;
      (** For each enabled worker that is suspended at an operation entry,
          the footprint of the operation it will execute when chosen —
          what dynamic partial-order reduction needs to decide whether two
          choices commute.  Workers that have not yet reached their first
          device operation (fiber startup) are absent. *)
  prev_reads : (int * int) list;
      (** Cache-line ranges the device {e read} during the step that led
          to this point (most recent first) — attributed to the previous
          decision's transition, whose [pending] footprint names only the
          operation at its entry.  Empty at the first point of an era. *)
}

val default_decision : point -> decision
(** The non-preempting baseline: continue [current] while it is enabled,
    else the lowest-numbered enabled worker.

    @raise Invalid_argument on an empty [enabled] list. *)

val random_decision : Random.State.t -> point -> decision
(** [random_decision rng] runs a worker drawn uniformly from [enabled] and
    never crashes: the seeded policy of fuzz cases and the CAS experiment.

    @raise Invalid_argument on an empty [enabled] list. *)

val spawn :
  crash_ctl:Nvram.Crash.t -> decide:(point -> decision) -> System.spawn
(** [spawn ~crash_ctl ~decide] is a {!System.spawn} strategy that
    runs all workers cooperatively on the calling thread, consulting
    [decide] at every scheduling point.  Each era ([System.run] or
    [System.recover] invocation) calls the strategy afresh — fibers are
    per-era, while [decide] may keep state across eras.

    @raise Invalid_argument if [decide] returns [Run j] for a worker not
    in [enabled]. *)
