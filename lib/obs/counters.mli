(** The counter ledger: the one place the runtime counts events.

    The device counts its reads, writes, flush calls and persisted lines
    here; the executor counts operations and recovery passes; recovery and
    the scrubber count media faults; the network server counts connections,
    requests and dedup hits.  The bench suite, the fuzzer and
    [nvkv_server]'s [STATS] line read {!totals}.

    Counters are {b always on}: {!Config.enabled} gates only timing work
    (histograms, clock reads, the trace ring), never a count, so the
    numbers are the same whether or not observability is switched on.
    Recording is striped like {!Histogram} — an increment is one
    [fetch_and_add] on the calling domain's stripe — and {!totals} sums the
    stripes.

    Device accounting rules:
    - counters measure API calls (what a protocol {e issues}), not bytes:
      every read, write and flush call counts once, including zero-length
      calls;
    - a CAS counts as one read, plus one write (8 payload bytes, one line)
      when it swaps;
    - [lines_flushed] counts every line actually written back: by an eager
      flush, by a drain, and by an auto-flush write;
    - flush calls per operation are deterministic for a given request
      mix; [lines_flushed] is not once two or more workers share a line:
      an eager flush skips a line another worker already persisted, and
      which worker gets there first varies from run to run.  A budget on
      lines persisted (or on writes) needs a one-worker run. *)

type t

(** One counter per field of {!totals}, with the same name. *)
type counter =
  | Ops
  | Reads
  | Writes
  | Flushes
  | Flushes_elided
  | Drains
  | Lines_flushed
  | Crashes
  | Lines_lost
  | Lines_survived
  | Crashes_survived
  | Recovery_passes
  | Payload_bytes
  | Amplified_bytes
  | Faults_injected
  | Faults_detected
  | Faults_repaired
  | Faults_quarantined
  | Conns_accepted
  | Requests_served
  | Dedup_hits

type totals = {
  ops : int;
      (** completed [Exec.call] invocations, counted on return: a call a
          crash aborts is not counted *)
  reads : int;  (** device read calls, CAS included *)
  writes : int;  (** device write calls, swapping CAS included *)
  flushes : int;  (** flush calls served eagerly *)
  flushes_elided : int;
      (** flush calls the coalescer turned into pending marks (coalesced
          mode only; disjoint from [flushes]) *)
  drains : int;
      (** drain events (persist barriers / dependent reads / era
          boundaries) that persisted at least one pending line *)
  lines_flushed : int;  (** cache lines actually persisted *)
  crashes : int;  (** simulated crash events applied to a device *)
  lines_lost : int;  (** dirty lines a crash discarded *)
  lines_survived : int;
      (** dirty lines a crash happened to write back (see
          [Nvram.Pmem.policy]) *)
  crashes_survived : int;  (** device crashes followed by a reboot *)
  recovery_passes : int;  (** [Exec.recover] completions *)
  payload_bytes : int;  (** bytes the callers asked to write *)
  amplified_bytes : int;  (** cache-line bytes those writes dirtied *)
  faults_injected : int;
      (** media faults the device injected: one per torn line, one per
          flipped bit *)
  faults_detected : int;
      (** checksum/shape mismatches recovery or the scrubber noticed *)
  faults_repaired : int;
      (** detected faults repaired in place (truncated torn frame,
          re-derived arena header, …) *)
  faults_quarantined : int;
      (** detected faults isolated instead of repaired (arena taken out of
          allocation service) *)
  conns_accepted : int;  (** client connections the server accepted *)
  requests_served : int;
      (** wire requests answered (fresh executions and dedup hits alike) *)
  dedup_hits : int;
      (** retried requests answered from the persistent dedup table without
          re-executing *)
}

val create : unit -> t

val add : t -> counter -> int -> unit
(** [add t c n] adds [n] to counter [c]. *)

val incr : t -> counter -> unit
(** [incr t c] is [add t c 1]. *)

val incr_dedup_hits : t -> unit
(** [incr t Dedup_hits]. *)

val totals : t -> totals
val reset : t -> unit

val write_amplification : totals -> float
(** [amplified_bytes / payload_bytes]; [0.] when nothing was written. *)

val flush_per_op : totals -> float
(** [(flushes + drains) / ops]; [0.] when no op completed.  Counting drain
    events next to eager flush calls makes the metric comparable across
    flush modes; on an eager device [drains = 0], so the value is the
    pre-coalescer [flushes / ops]. *)

val pp : Format.formatter -> totals -> unit
