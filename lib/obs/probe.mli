(** The runtime's standard hook points.

    One global {!Histogram} per operation class, plus the global
    {!Counters} ledger.  The device, the executor and the heap record here;
    reporting layers ({!Sink}, the bench harness, the fuzzer) read here.

    The ledger is always on.  Latency recording is timing work and follows
    {!Config.enabled}: a site takes its start stamp with {!start} and
    records with {!stop}, so a disabled system never reads the clock. *)

type kind =
  | Pmem_read
  | Pmem_write
  | Pmem_flush
  | Pmem_cas
  | Exec_call
  | Exec_recover
  | Net_request  (** whole wire request, decode to response write *)
  | Recovery_span
      (** server restart span: attach + replay recovery + dedup re-attach,
          i.e. the recovery-time SLA the bench gate budgets *)

val kinds : kind list
(** All kinds, in declaration order. *)

val kind_name : kind -> string
(** Stable lower-snake name ([pmem_read], [exec_call], ...). *)

val histogram : kind -> Histogram.t
(** The global latency histogram for one operation class. *)

val counters : Counters.t
(** The global counter ledger. *)

val record_latency : kind -> t0_ns:int -> unit
(** [record_latency k ~t0_ns] records [now - t0_ns] into [histogram k],
    unconditionally. *)

val start : unit -> int
(** The start stamp of a timed operation: [Config.now_ns ()] while
    recording is enabled, [-1] (no clock read) while it is disabled. *)

val stop : kind -> int -> unit
(** [stop k t0] records the latency since [t0 = start ()] into
    [histogram k]; nothing when [t0] was taken while disabled. *)

val reset : unit -> unit
(** Zero every histogram and counter (not the trace ring). *)
