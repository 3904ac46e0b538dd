(** Crash–restart orchestration: steps 3–9 of Section 5.2.

    The driver runs a batch of tasks on a fresh system, arms a crash plan
    for each {e era} (a period between two restarts), and on every
    simulated crash performs the full restart sequence — apply the crash to
    the device, reboot it, re-attach in recovery mode, complete the
    interrupted operations, and return to normal mode — until every task is
    done.  A crash during recovery itself simply starts the next era with a
    new recovery, reproducing the repeated-failure behaviour of
    Section 4.3. *)

type report = {
  eras : int;  (** Number of normal-or-recovery periods executed. *)
  crashes : int;  (** Number of simulated crash events. *)
  results : (int * int64) list;
      (** Task index and answer of every completed task (all of them,
          on success). *)
  recovery : Recovery_report.t;
      (** Every media repair any restart performed — truncated stack
          tails, rewritten arena headers, quarantined
          arenas, whether attach or the heap sweep ending the recovery
          found them — aggregated across all eras (clean when no faults were
          injected or every era recovered undamaged). *)
}

type event =
  | Era_armed of { era : int; plan : Nvram.Crash.plan }
      (** A new era started and armed this crash plan. *)
  | Crash_fired of { era : int; at_op : int }
      (** The era's plan fired after [at_op] persistence operations — the
          value an [At_op at_op] plan would need to reproduce this crash
          deterministically.  Emitted before the device reboots (the
          counter does not survive the restart). *)
  | Recovery_repaired of { era : int; report : Recovery_report.t }
      (** The restart ending era [era] found and degraded around media
          damage.  Emitted after attach and again after the heap sweep
          that ends the recovery, each time only when that step reported
          something. *)

exception Unrecoverable of { reason : string; eras : int; crashes : int }
(** A restart hit damage the recovery paths cannot degrade around — a
    corrupt dummy frame or anchor ({!Pstack.Repair.Corrupt_stack}), a
    superblock failing its checksum, or a torn task completion
    ({!Task.Torn_completion}).  Structured so campaign oracles can
    distinguish a {e reported} fatal from an unexpected exception.  A
    printer is registered. *)

val run_to_completion :
  Nvram.Pmem.t ->
  registry:Exec.t Registry.t ->
  config:System.config ->
  submit:(System.t -> unit) ->
  ?init:(System.t -> unit) ->
  ?reattach:(System.t -> unit) ->
  ?recovered:(System.t -> unit) ->
  ?reclaim:(System.t -> Nvram.Offset.t list) ->
  ?plan:(era:int -> Nvram.Crash.plan) ->
  ?observer:(event -> unit) ->
  ?max_crashes:int ->
  ?spawn:System.spawn ->
  unit ->
  report
(** [run_to_completion pmem ~registry ~config ~submit ()] creates a fresh
    system on [pmem], calls [init] (allocate application structures), then
    [submit] (enqueue the workload), and drives it to completion.

    [plan ~era] arms the crash plan of each era (default: no crashes).
    [observer] receives one {!Era_armed} per era and one {!Crash_fired} per
    simulated crash, in order — the snapshot hook used by the crash-schedule
    fuzzer to record where probabilistic plans actually fired.  [reattach]
    runs after each restart, before recovery, so the
    application can rebind its volatile handles from the persistent root;
    [recovered] runs after each recovery that completes, heap sweep
    included, before normal mode resumes.
    [reclaim] provides the application's live heap roots for the leak sweep
    after each successful recovery.  [spawn] substitutes the worker
    execution strategy of every era (normal and recovery) — see
    {!System.spawn}; the fuzz harness, the model checker and the CAS
    experiment pass {!Coop.spawn} to run the whole crash-restart loop
    cooperatively on one thread.

    @raise Failure if more than [max_crashes] (default 10_000) crashes
    occur — a guard against plans that fire before any progress. *)
