(* Observability layer: histograms, counters, trace ring, sink capture,
   and the default-off contract. *)

module Histogram = Obs.Histogram
module Counters = Obs.Counters
module Trace = Obs.Trace
module Config = Obs.Config
module Pmem = Nvram.Pmem

let off = Nvram.Offset.of_int

(* ------------------------------------------------------------------ *)
(* Config                                                               *)

let test_default_off () =
  Alcotest.(check bool) "disabled by default" false (Config.enabled ())

let test_with_enabled_restores () =
  Alcotest.(check bool) "starts off" false (Config.enabled ());
  Config.with_enabled true (fun () ->
      Alcotest.(check bool) "on inside" true (Config.enabled ()));
  Alcotest.(check bool) "off after" false (Config.enabled ());
  (try
     Config.with_enabled true (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "off after exception" false (Config.enabled ())

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)

(* Bucket i covers [2^i, 2^(i+1)); its representative is 1.5 * 2^i. *)
let rep i = 1.5 *. Float.pow 2. (float_of_int i)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for _ = 1 to 99 do
    Histogram.record h 1000 (* bucket 9: [512, 1024) *)
  done;
  Histogram.record h 1_000_000 (* bucket 19 *);
  Alcotest.(check int) "count" 100 (Histogram.count h);
  let s = Histogram.summary h in
  Alcotest.(check (float 0.01)) "p50 in the common bucket" (rep 9)
    s.Histogram.p50;
  Alcotest.(check (float 0.01)) "p95 in the common bucket" (rep 9)
    s.Histogram.p95;
  Alcotest.(check (float 0.01)) "p100 reaches the outlier" (rep 19)
    (Histogram.percentile h 1.0)

let test_histogram_merge_reset () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 100;
  Histogram.record b 100;
  Histogram.record b 200;
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 3 (Histogram.count m);
  Alcotest.(check int) "inputs untouched" 1 (Histogram.count a);
  Histogram.reset a;
  Alcotest.(check int) "reset empties" 0 (Histogram.count a);
  let s = Histogram.summary a in
  Alcotest.(check (float 0.)) "empty summary is zero" 0. s.Histogram.p99

let test_histogram_multi_domain () =
  let h = Histogram.create () in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Histogram.record h 4096
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no lost samples across stripes" 4000
    (Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)

let test_counters () =
  let c = Counters.create () in
  Counters.incr c Ops;
  Counters.incr c Ops;
  Counters.incr c Reads;
  Counters.add c Writes 2;
  Counters.add c Payload_bytes 110;
  Counters.add c Amplified_bytes 192;
  Counters.incr c Flushes;
  Counters.add c Lines_flushed 3;
  Counters.incr c Crashes_survived;
  Counters.incr c Recovery_passes;
  let t = Counters.totals c in
  Alcotest.(check int) "ops" 2 t.Counters.ops;
  Alcotest.(check int) "reads" 1 t.Counters.reads;
  Alcotest.(check int) "writes" 2 t.Counters.writes;
  Alcotest.(check int) "flushes" 1 t.Counters.flushes;
  Alcotest.(check int) "lines flushed" 3 t.Counters.lines_flushed;
  Alcotest.(check int) "crashes survived" 1 t.Counters.crashes_survived;
  Alcotest.(check int) "recovery passes" 1 t.Counters.recovery_passes;
  Alcotest.(check int) "payload bytes" 110 t.Counters.payload_bytes;
  Alcotest.(check int) "amplified bytes" 192 t.Counters.amplified_bytes;
  Alcotest.(check (float 0.001)) "write amplification" (192. /. 110.)
    (Counters.write_amplification t);
  Alcotest.(check (float 0.001)) "flush per op" 0.5 (Counters.flush_per_op t);
  Counters.reset c;
  Alcotest.(check int) "reset" 0 (Counters.totals c).Counters.ops

(* The partition rule: a flush call lands in [flushes] (eager) XOR
   [flushes_elided] (coalesced), never both; a drain event is its own
   counter; and the flush_per_op metric charges eager flush calls plus
   drain events — so on an eager device (drains = 0) it degenerates to
   the historical flushes/ops, bit for bit. *)
let test_counters_elision_partition () =
  let c = Counters.create () in
  Counters.incr c Ops;
  Counters.incr c Ops;
  Counters.incr c Flushes;
  Counters.add c Lines_flushed 1;
  Counters.add c Flushes_elided 3;
  Counters.incr c Drains;
  Counters.add c Lines_flushed 2;
  let t = Counters.totals c in
  Alcotest.(check int) "flushes counts only eager calls" 1 t.Counters.flushes;
  Alcotest.(check int) "elided calls counted apart" 3
    t.Counters.flushes_elided;
  Alcotest.(check int) "drain events" 1 t.Counters.drains;
  Alcotest.(check int) "drained lines land in lines_flushed" 3
    t.Counters.lines_flushed;
  Alcotest.(check (float 0.001))
    "flush_per_op = (flushes + drains) / ops" 1.
    (Counters.flush_per_op t);
  Counters.reset c;
  let t = Counters.totals c in
  Alcotest.(check int) "reset zeroes elided" 0 t.Counters.flushes_elided;
  Alcotest.(check int) "reset zeroes drains" 0 t.Counters.drains

(* A fixed op sequence on an eager obs-on device must produce exactly the
   pre-coalescing counter values — in particular zero elided flushes and
   zero drains, and [persist_barrier] must contribute nothing at all.
   This pins the double-counting fix: eager numbers cannot drift because
   the coalescer exists. *)
let eager_pin_sequence flush_mode =
  Obs.Probe.reset ();
  Config.with_enabled true (fun () ->
      let pmem = Pmem.create ~flush_mode ~size:4096 () in
      let data = Bytes.make 100 'x' in
      Pmem.write_bytes pmem ~off:(off 0) data;
      Pmem.flush pmem ~off:(off 0) ~len:100;
      Pmem.write_int64 pmem (off 256) 42L;
      Pmem.flush pmem ~off:(off 256) ~len:8;
      Pmem.flush pmem ~off:(off 256) ~len:8;
      Pmem.persist_barrier pmem;
      ignore (Pmem.read_bytes pmem ~off:(off 0) ~len:100);
      Pmem.drain_all pmem);
  let t = (Obs.Sink.capture ()).Obs.Sink.counters in
  Obs.Probe.reset ();
  t

let test_eager_counters_pinned () =
  let t = eager_pin_sequence Pmem.Eager in
  Alcotest.(check int) "writes" 2 t.Counters.writes;
  Alcotest.(check int) "reads" 1 t.Counters.reads;
  Alcotest.(check int) "flushes" 3 t.Counters.flushes;
  (* 2 lines from the first flush, 1 from the second; the repeated flush
     finds its line already clean and writes nothing back. *)
  Alcotest.(check int) "lines flushed" 3 t.Counters.lines_flushed;
  Alcotest.(check int) "no elided flushes on an eager device" 0
    t.Counters.flushes_elided;
  Alcotest.(check int) "no drains on an eager device" 0 t.Counters.drains

(* The same sequence coalesced: every flush call elides, the repeated
   flush of one line coalesces, and the write-backs happen at the explicit
   barrier and at the dependent read — each a single drain event. *)
let test_coalesced_counters_partition () =
  let t = eager_pin_sequence Pmem.Coalesced in
  Alcotest.(check int) "writes" 2 t.Counters.writes;
  Alcotest.(check int) "no eager flush calls" 0 t.Counters.flushes;
  Alcotest.(check int) "every flush call elided" 3 t.Counters.flushes_elided;
  (* barrier drains lines 0-1 and 4; the read finds nothing pending and
     the final drain_all finds nothing either, so exactly one drain. *)
  Alcotest.(check int) "one drain event" 1 t.Counters.drains;
  Alcotest.(check int) "all marked lines written back once" 3
    t.Counters.lines_flushed

(* ------------------------------------------------------------------ *)
(* Trace ring                                                           *)

let test_trace_disabled_is_noop () =
  Trace.clear ();
  Trace.record (Trace.Era_armed { era = 1 });
  Alcotest.(check int) "nothing recorded while disabled" 0
    (List.length (Trace.events ()))

let test_trace_order_and_tail () =
  Trace.clear ();
  Config.with_enabled true (fun () ->
      for era = 1 to 10 do
        Trace.record (Trace.Era_armed { era })
      done);
  let eras =
    List.map
      (fun e ->
        match e.Trace.kind with Trace.Era_armed { era } -> era | _ -> -1)
      (Trace.events ())
  in
  Alcotest.(check (list int)) "oldest first" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    eras;
  Alcotest.(check int) "tail bounds" 3 (List.length (Trace.tail 3));
  Trace.clear ();
  Alcotest.(check int) "clear empties" 0 (List.length (Trace.events ()))

let test_trace_wraparound () =
  Trace.clear ();
  let extra = 10 in
  Config.with_enabled true (fun () ->
      for era = 1 to Trace.capacity + extra do
        Trace.record (Trace.Era_armed { era })
      done);
  let events = Trace.events () in
  Alcotest.(check int) "ring holds capacity" Trace.capacity
    (List.length events);
  (match (List.hd events).Trace.kind with
  | Trace.Era_armed { era } ->
      Alcotest.(check int) "oldest surviving event" (extra + 1) era
  | _ -> Alcotest.fail "unexpected kind");
  Trace.clear ()

let test_chrome_json_shape () =
  let ev ts kind = { Trace.ts_ns = ts; domain = 0; kind } in
  let json =
    Trace.chrome_json_of_events
      [
        ev 1000 (Trace.Op_begin { func_id = 7 });
        ev 2000 (Trace.Crash_fired { era = 1; at_op = 42 });
        ev 3000 (Trace.Op_end { func_id = 7 });
      ]
  in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i =
      i + n <= h && (String.sub json i n = needle || go (i + 1))
    in
    go 0
  in
  let trimmed = String.trim json in
  Alcotest.(check bool) "array brackets" true
    (trimmed.[0] = '[' && trimmed.[String.length trimmed - 1] = ']');
  Alcotest.(check bool) "begin phase" true (contains "\"ph\":\"B\"");
  Alcotest.(check bool) "end phase" true (contains "\"ph\":\"E\"");
  Alcotest.(check bool) "instant phase" true (contains "\"ph\":\"i\"");
  Alcotest.(check bool) "crash args" true (contains "\"at_op\":42")

(* ------------------------------------------------------------------ *)
(* End to end: device ops feed the global probes; sink snapshots them.  *)

let test_sink_capture_from_device () =
  Obs.Probe.reset ();
  Trace.clear ();
  Config.with_enabled true (fun () ->
      let pmem = Pmem.create ~size:4096 () in
      let data = Bytes.make 100 'x' in
      Pmem.write_bytes pmem ~off:(off 0) data;
      Pmem.flush pmem ~off:(off 0) ~len:100;
      ignore (Pmem.read_bytes pmem ~off:(off 0) ~len:100));
  let snap = Obs.Sink.capture () in
  let summary name = Obs.Sink.summary_exn snap name in
  Alcotest.(check int) "one write sampled" 1
    (summary "pmem_write").Histogram.count;
  Alcotest.(check int) "one flush sampled" 1
    (summary "pmem_flush").Histogram.count;
  Alcotest.(check int) "one read sampled" 1
    (summary "pmem_read").Histogram.count;
  let t = snap.Obs.Sink.counters in
  Alcotest.(check int) "writes counted" 1 t.Counters.writes;
  Alcotest.(check int) "reads counted" 1 t.Counters.reads;
  Alcotest.(check int) "payload bytes" 100 t.Counters.payload_bytes;
  (* 100 bytes from offset 0 dirty two 64-byte lines. *)
  Alcotest.(check int) "amplified bytes" 128 t.Counters.amplified_bytes;
  Alcotest.(check bool) "lines flushed" true (t.Counters.lines_flushed >= 2);
  Obs.Probe.reset ()

(* The switch gates timing work only: while disabled no latency sample and
   no trace event is recorded ... *)
let disabled_snapshot () =
  Obs.Probe.reset ();
  Trace.clear ();
  let pmem = Pmem.create ~size:4096 () in
  Pmem.write_int64 pmem (off 0) 42L;
  Pmem.flush pmem ~off:(off 0) ~len:8;
  let snap = Obs.Sink.capture () in
  Obs.Probe.reset ();
  snap

let test_disabled_records_nothing () =
  let snap = disabled_snapshot () in
  Alcotest.(check int) "no samples while disabled" 0
    (Obs.Sink.summary_exn snap "pmem_write").Histogram.count;
  Alcotest.(check int) "no trace events while disabled" 0
    (List.length snap.Obs.Sink.trace_tail)

(* ... but the counter ledger counts either way. *)
let test_disabled_still_counts () =
  let snap = disabled_snapshot () in
  Alcotest.(check int) "writes count while disabled" 1
    snap.Obs.Sink.counters.Counters.writes;
  Alcotest.(check int) "flushes count while disabled" 1
    snap.Obs.Sink.counters.Counters.flushes

let () =
  Alcotest.run "obs"
    [
      ( "config",
        [
          Alcotest.test_case "default off" `Quick test_default_off;
          Alcotest.test_case "with_enabled restores" `Quick
            test_with_enabled_restores;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "merge and reset" `Quick
            test_histogram_merge_reset;
          Alcotest.test_case "multi-domain recording" `Quick
            test_histogram_multi_domain;
        ] );
      ( "counters",
        [
          Alcotest.test_case "totals" `Quick test_counters;
          Alcotest.test_case "elision partition" `Quick
            test_counters_elision_partition;
          Alcotest.test_case "eager counters pinned" `Quick
            test_eager_counters_pinned;
          Alcotest.test_case "coalesced partition end to end" `Quick
            test_coalesced_counters_partition;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_trace_disabled_is_noop;
          Alcotest.test_case "order and tail" `Quick test_trace_order_and_tail;
          Alcotest.test_case "wraparound" `Quick test_trace_wraparound;
          Alcotest.test_case "chrome json shape" `Quick test_chrome_json_shape;
        ] );
      ( "sink",
        [
          Alcotest.test_case "capture from device ops" `Quick
            test_sink_capture_from_device;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "disabled still counts" `Quick
            test_disabled_still_counts;
        ] );
    ]
