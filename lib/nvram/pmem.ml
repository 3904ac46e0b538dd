type policy = Lose_all | Lose_none | Lose_random of int
type flush_mode = Eager | Coalesced

(* Per-domain pending-line log for the coalesced mode: the order in which
   this domain's flush calls first marked each line pending.  A drain
   persists a whole log in that (flush) order, so the persisted set at any
   moment is a prefix of the flush sequence — the property that makes every
   coalesced persistence state one the eager mode can also reach.  The log
   mutex is never taken while a stripe is held (flushes append after
   releasing their stripes; drains take [log_mu] first, then stripes one at
   a time), so the two lock families cannot deadlock. *)
type pending_log = {
  log_mu : Mutex.t;
  mutable log_lines : int array;
  mutable log_len : int;
}

let log_buckets = 16 (* power of two, like Obs.Counters *)

(* Media-fault state (see [arm_faults]).  Owned by the device, not by
   [Crash]: [Crash.reset] models a machine restart, and restarting a
   machine does not repair its media — fault plans must survive every era
   of a run.  All mutable state is guarded by [fault_mu]; the [armed] flag
   is read racily on hot paths, which is sound because arming
   happens-before the workers start (same argument as [Crash.step]'s
   fast path). *)
type faults = {
  fault_mu : Mutex.t;
  mutable fplan : Crash.fault_plan;
  mutable armed : bool;
  mutable tear_rng : Random.State.t;
  mutable bitflip_rng : Random.State.t;
  mutable crash_events : int;  (* tear plans count crash events *)
  mutable restarts : int;  (* bitflip plans count restarts *)
  mutable targets : (int * int) array;
      (* bitflip target regions (offset, length); [||] = whole device *)
}

type t = {
  line_size : int;
  line_shift : int;  (* log2 line_size *)
  size : int;
  lines : int;
  policy : policy;
  auto_flush : bool;
  flush_mode : flush_mode;
  backend : Backend.t;
  volatile : bytes;  (* visible content: persistent image + unflushed writes *)
  dirty : bool array;  (* per cache line *)
  pending : bool array;
      (* per cache line, coalesced mode only: flushed but not yet drained.
         Invariant: pending implies dirty (guarded by the line's stripe). *)
  logs : pending_log array;  (* indexed by domain id land (log_buckets-1) *)
  mutable drain_breakage : int;
      (* test hook ([unsafe_break_drain]): number of upcoming line drains to
         silently forget — clear the tags without persisting — so tests can
         demonstrate that the model checker's equivalence check fires on a
         broken drain.  0 in real use. *)
  crash_ctl : Crash.t;
  faults : faults;
  crash_rng : Random.State.t;
  yield_probability : float;
  yield_state : int Atomic.t;  (* lock-free LCG for scheduling jitter *)
  stripes : Mutex.t array;
      (* Striped device lock: stripe [s] guards every cache line [l] with
         [stripe_of t l = s] — its bytes in [volatile], its
         [dirty] bit and its persistence.  Operations on disjoint lines
         proceed in parallel; an operation touching several lines holds all
         covering stripes for its whole duration (acquired in ascending
         stripe order, so the locking is deadlock-free), which preserves the
         linearizability of the old single-mutex device. *)
}

let default_stripes = 256

let create ?(line_size = 64) ?(policy = Lose_all) ?(auto_flush = false)
    ?(flush_mode = Eager) ?(yield_probability = 0.) ?backend ~size () =
  Layout.check_line_size line_size;
  if size <= 0 then invalid_arg "Pmem.create: size must be positive";
  let backend =
    match backend with Some b -> b | None -> Backend.memory ~size
  in
  if Backend.size backend <> size then
    invalid_arg "Pmem.create: backend size mismatch";
  let volatile = Bytes.create size in
  Backend.blit_to backend ~off:0 ~dst:volatile ~dst_off:0 ~len:size;
  let lines = (size + line_size - 1) / line_size in
  let crash_rng =
    match policy with
    | Lose_random seed -> Random.State.make [| seed |]
    | Lose_all | Lose_none -> Random.State.make [| 0 |]
  in
  let line_shift =
    let s = ref 0 in
    while 1 lsl !s < line_size do
      incr s
    done;
    !s
  in
  (* Power of two, and never more stripes than lines. *)
  let nstripes =
    let target = max 1 (min default_stripes lines) in
    let n = ref 1 in
    while !n * 2 <= target do
      n := !n * 2
    done;
    !n
  in
  {
    line_size;
    line_shift;
    size;
    lines;
    policy;
    auto_flush;
    flush_mode;
    backend;
    volatile;
    dirty = Array.make lines false;
    pending = Array.make lines false;
    logs =
      Array.init log_buckets (fun _ ->
          { log_mu = Mutex.create (); log_lines = [||]; log_len = 0 });
    drain_breakage = 0;
    crash_ctl = Crash.create ();
    faults =
      {
        fault_mu = Mutex.create ();
        fplan = Crash.no_faults;
        armed = false;
        tear_rng = Random.State.make [| 0 |];
        bitflip_rng = Random.State.make [| 0 |];
        crash_events = 0;
        restarts = 0;
        targets = [||];
      };
    crash_rng;
    yield_probability;
    yield_state = Atomic.make 0x9E3779B9;
    stripes = Array.init nstripes (fun _ -> Mutex.create ());
  }

let size t = t.size
let line_size t = t.line_size
let auto_flush t = t.auto_flush
let flush_mode t = t.flush_mode
let crash_ctl t = t.crash_ctl
let backend t = t.backend

let check_range t off len =
  let off = Offset.to_int off in
  if off < 0 || len < 0 || off + len > t.size then
    invalid_arg
      (Printf.sprintf "Pmem: range [%d, %d) outside device of size %d" off
         (off + len) t.size)

(* Scheduling jitter: on a single-CPU host, OS timeslices are thousands of
   simulated operations long, so concurrent workers would never interleave
   within the short windows concurrency bugs live in.  Descheduling the
   calling OS thread with some probability after each tracked operation
   restores fine-grained interleaving; a short [Unix.sleepf] deschedules
   across worker domains, which [Thread.yield] (domain-local) does not.
   Deliberately racy LCG: determinism is not wanted here. *)
let maybe_yield t =
  if t.yield_probability > 0. then begin
    let s = Atomic.get t.yield_state in
    let s' = (s * 0x5851F42D4C957F2D) + 0x14057B7EF767814F in
    Atomic.set t.yield_state s';
    let u = float_of_int ((s' lsr 11) land 0xFFFFFF) /. 16777216.0 in
    if u < t.yield_probability then Unix.sleepf 1e-6
  end

(* The line holding device offset [off]: line sizes are powers of two, so
   a shift rather than a division on every access. *)
let line_of t off = off lsr t.line_shift

(* Fibonacci-hash the line index onto a stripe.  The naive [line mod
   stripes] map aliases badly in practice: worker-private regions are
   usually a round number of lines apart (a power-of-two stride), so every
   worker's hot line 0 lands on the *same* stripe and the "striped" lock
   degenerates to a single shared mutex.  Mixing the bits first spreads
   any stride pattern across all stripes. *)
let stripe_of t line =
  (line * 0x2545F4914F6CDD1D) lsr 40 land (Array.length t.stripes - 1)

(* Every device event is counted in the always-on ledger (counters.mli has
   the accounting rules). *)
let ledger = Obs.Probe.counters
let count c = Obs.Counters.incr ledger c

let count_write t ~lines ~len =
  count Writes;
  Obs.Counters.add ledger Payload_bytes len;
  Obs.Counters.add ledger Amplified_bytes (lines * t.line_size)

(* Run [f] holding the stripes of lines [first..last].  Stripes are locked
   in ascending index order and released in reverse, also on exceptions
   (crash signals fire mid-operation by design). *)
let with_lines t ~first ~last f =
  let n = Array.length t.stripes in
  let result =
    if first = last then Mutex.protect t.stripes.(stripe_of t first) f
    else begin
      let needed =
        if last - first + 1 >= n then Array.make n true
        else begin
          let needed = Array.make n false in
          for l = first to last do
            needed.(stripe_of t l) <- true
          done;
          needed
        end
      in
      for s = 0 to n - 1 do
        if needed.(s) then Mutex.lock t.stripes.(s)
      done;
      Fun.protect
        ~finally:(fun () ->
          for s = n - 1 downto 0 do
            if needed.(s) then Mutex.unlock t.stripes.(s)
          done)
        f
    end
  in
  maybe_yield t;
  result

(* Whole-device operations (crash, peeks, dirty-line census) serialise
   against everything by holding every stripe. *)
let with_all_lines t f = with_lines t ~first:0 ~last:(t.lines - 1) f

(* Persist one cache line: atomic with respect to crashes.  Clears both
   tags — a persisted line is neither dirty nor pending. *)
let persist_line t index =
  let start = index * t.line_size in
  let len = min t.line_size (t.size - start) in
  Backend.persist t.backend ~off:start ~src:t.volatile ~src_off:start ~len;
  t.dirty.(index) <- false;
  t.pending.(index) <- false

(* Write line [index] back on behalf of a flush, a drain or an auto-flush
   write: the persists [lines_flushed] counts. *)
let flush_line t index =
  persist_line t index;
  count Lines_flushed

(* {2 Media faults: torn lines and bit rot} *)

let arm_faults ?(targets = [||]) t fplan =
  let f = t.faults in
  Mutex.protect f.fault_mu (fun () ->
      Array.iter
        (fun (off, len) ->
          if off < 0 || len <= 0 || off + len > t.size then
            invalid_arg "Pmem.arm_faults: target region outside device")
        targets;
      f.fplan <- fplan;
      f.tear_rng <- Random.State.make [| fplan.Crash.fault_seed; 1 |];
      f.bitflip_rng <- Random.State.make [| fplan.Crash.fault_seed; 2 |];
      f.crash_events <- 0;
      f.restarts <- 0;
      f.targets <- targets;
      f.armed <- Crash.has_faults fplan)

let fault_plan t = Mutex.protect t.faults.fault_mu (fun () -> t.faults.fplan)

let plan_fires ~counter ~rng = function
  | Crash.Never -> false
  | Crash.At_op n -> counter >= n
  | Crash.Random { probability; _ } ->
      Random.State.float rng 1.0 < probability

(* Tear the persist of line [index] that the crash just interrupted.  The
   in-flight bytes are [seg_len] bytes at device offset [seg_start], with
   their {e new} content at [src.(src_off ..)]: a seeded prefix of the new
   content reaches the persistent image, a seeded handful of the following
   bytes are shredded with garbage, and the rest keep their old persisted
   value — the three states a byte of an interrupted write-back can land
   in.  The caller holds the stripe of [index]; the torn image is copied
   back into the volatile cache and the line marked clean so the crash's
   lose/survive pass cannot overwrite the tear with intact content. *)
let tear_line_locked t ~index ~seg_start ~seg_len ~src ~src_off ~rng =
  let keep = Random.State.int rng (seg_len + 1) in
  if keep > 0 then
    Backend.persist t.backend ~off:seg_start ~src ~src_off ~len:keep;
  let shred = Random.State.int rng (min 8 (seg_len - keep) + 1) in
  if shred > 0 then begin
    let garbage = Bytes.init shred (fun _ -> Char.chr (Random.State.int rng 256)) in
    Backend.persist t.backend ~off:(seg_start + keep) ~src:garbage ~src_off:0
      ~len:shred
  end;
  (* Volatile must agree with the torn image: the machine is dead, and the
     reboot path re-reads the backend anyway, but a racing op between the
     tear and [crash t] must not observe pre-tear bytes as clean. *)
  let line_start = index * t.line_size in
  let line_len = min t.line_size (t.size - line_start) in
  Backend.blit_to t.backend ~off:line_start ~dst:t.volatile
    ~dst_off:line_start ~len:line_len;
  t.dirty.(index) <- false;
  t.pending.(index) <- false;
  count Faults_injected

(* Crash-scheduler step at a persistence point covering line [index], with
   tearing: when this step is the one that {e fires} the crash (not a
   later step observing an already-crashed device) it counts one crash
   event, and the armed tear plan decides whether the interrupted persist
   of [index] is torn.  Caller holds the stripe of [index]. *)
let step_fault t ~index ~seg_start ~seg_len ~src ~src_off =
  let f = t.faults in
  if not f.armed then Crash.step t.crash_ctl
  else begin
    let was_crashed = Crash.crashed t.crash_ctl in
    match Crash.step t.crash_ctl with
    | () -> ()
    | exception Crash.Crash_now when not was_crashed ->
        let tear =
          Mutex.protect f.fault_mu (fun () ->
              f.crash_events <- f.crash_events + 1;
              if
                seg_len > 0
                && plan_fires ~counter:f.crash_events ~rng:f.tear_rng
                     f.fplan.Crash.tear
              then Some f.tear_rng
              else None)
        in
        (match tear with
        | Some rng ->
            tear_line_locked t ~index ~seg_start ~seg_len ~src ~src_off ~rng
        | None -> ());
        raise Crash.Crash_now
  end

(* Bit rot between eras: flip seeded persisted bits inside the configured
   target regions.  Runs on [restart], i.e. with the machine quiescent —
   every worker died with [Crash_now]; the stripe lock still makes each
   flip atomic against stragglers. *)
let apply_bitflips t =
  let f = t.faults in
  let flips =
    Mutex.protect f.fault_mu (fun () ->
        f.restarts <- f.restarts + 1;
        if
          not
            (plan_fires ~counter:f.restarts ~rng:f.bitflip_rng
               f.fplan.Crash.bitflip)
        then [||]
        else begin
          let rng = f.bitflip_rng in
          let n = 1 + Random.State.int rng 3 in
          Array.init n (fun _ ->
              let off =
                if Array.length f.targets = 0 then
                  Random.State.int rng t.size
                else begin
                  let region, len =
                    f.targets.(Random.State.int rng (Array.length f.targets))
                  in
                  region + Random.State.int rng len
                end
              in
              (off, Random.State.int rng 8))
        end)
  in
  Array.iter
    (fun (off, bit) ->
      let index = line_of t off in
      with_lines t ~first:index ~last:index (fun () ->
          Backend.flip_bit t.backend ~off ~bit;
          Bytes.set t.volatile off
            (Char.chr
               (Char.code (Bytes.get t.volatile off) lxor (1 lsl bit))));
      count Faults_injected)
    flips

let inject_bitflip t ~off ~bit =
  check_range t off 1;
  let off = Offset.to_int off in
  let index = line_of t off in
  with_lines t ~first:index ~last:index (fun () ->
      Backend.flip_bit t.backend ~off ~bit;
      Bytes.set t.volatile off
        (Char.chr (Char.code (Bytes.get t.volatile off) lxor (1 lsl bit))));
  count Faults_injected

(* {2 Coalesced-mode pending logs and drains} *)

let my_log t = t.logs.((Domain.self () :> int) land (log_buckets - 1))

(* Record a newly-pending line in the calling domain's log.  Called with no
   stripe held (see the lock-order note on [pending_log]); the amortised
   growth keeps the steady-state append allocation-free. *)
let log_append t index =
  let log = my_log t in
  Mutex.lock log.log_mu;
  let cap = Array.length log.log_lines in
  if log.log_len = cap then begin
    let bigger = Array.make (max 64 (2 * cap)) 0 in
    Array.blit log.log_lines 0 bigger 0 log.log_len;
    log.log_lines <- bigger
  end;
  log.log_lines.(log.log_len) <- index;
  log.log_len <- log.log_len + 1;
  Mutex.unlock log.log_mu

(* Drain one pending log: persist its still-pending lines in first-flush
   order and empty it.  Entries whose line is no longer pending (persisted
   meanwhile by an auto-flush write, another drain, or a crash) are
   skipped.  A drain contains no [Crash.step]: it is atomic with respect to
   the crash plan of the draining domain, so it only moves the device
   {e toward} the fully-persisted state — it can remove reachable
   post-crash states (lines that would have been lost survive) but never
   create one the eager mode could not reach.  Returns the number of lines
   drained.  Caller must hold no stripe lock. *)
let drain_log t log =
  Mutex.lock log.log_mu;
  let drained = ref 0 in
  (match
     for k = 0 to log.log_len - 1 do
       let index = log.log_lines.(k) in
       let mu = t.stripes.(stripe_of t index) in
       Mutex.lock mu;
       (match
          if t.pending.(index) then begin
            if t.drain_breakage > 0 then begin
              (* Broken write-back (test hook): drop the tags without
                 persisting.  The runtime now believes the line is
                 persistent while the image still holds the old bytes. *)
              t.drain_breakage <- t.drain_breakage - 1;
              t.pending.(index) <- false;
              t.dirty.(index) <- false
            end
            else flush_line t index;
            incr drained
          end
        with
       | () -> Mutex.unlock mu
       | exception e ->
           Mutex.unlock mu;
           raise e)
     done;
     log.log_len <- 0
   with
  | () -> Mutex.unlock log.log_mu
  | exception e ->
      Mutex.unlock log.log_mu;
      raise e);
  !drained

(* One drain event = one moment the device wrote pending lines back; only
   events that persisted something count, so an empty barrier is free. *)
let note_drain lines = if lines > 0 then count Drains

let drain_own t = note_drain (drain_log t (my_log t))

let drain_every_log t =
  let lines = ref 0 in
  Array.iter (fun log -> lines := !lines + drain_log t log) t.logs;
  note_drain !lines

(* Dependent read: in coalesced mode, reading a pending line is a persist
   barrier (FliT's flush-on-shared-read rule) — the reader may act on the
   value, so the value must be persistent before it is returned.  The
   pre-lock tag check is deliberately racy: missing a concurrent mark only
   delays the drain to the next barrier, and a stale positive drains early;
   both are sound because drains only persist.  Drain own log first (the
   common case — a domain reading its own recent writes), then everyone's
   if the line is still pending under another domain's log.  [any_pending]
   is top-level, not a local closure over [t] and [last]: a closure would
   allocate on every coalesced read. *)
let rec any_pending t i last =
  i <= last && (t.pending.(i) || any_pending t (i + 1) last)

let read_drain t ~first ~last =
  if any_pending t first last then begin
    drain_own t;
    if any_pending t first last then drain_every_log t
  end

(* {2 The access path}

   Every data operation and every flush runs one sequence: lock the
   stripes of the lines it covers (ascending), refuse if the system has
   crashed, count the call, run the operation's body, unlock — also when
   the body's crash step raises, since crash signals fire mid-operation by
   design — and yield.  [span] is that sequence.

   A span of one or two lines (every byte, word and CAS access, and
   frame-sized writes and flushes) locks its stripes by hand, and the body
   is a top-level function taking its operands as plain arguments, so the
   whole call allocates nothing: no closure, no tuple, no staging buffer.
   That matters because minor collections stop the world across all
   domains in OCaml 5; on the measured host they, not the locks, dominated
   the multicore anti-scaling (DESIGN.md section 10).  Wider spans go
   through [with_lines].

   Within a body the order is crash step, mutation, dirty bit, auto-flush:
   crash-point numbering, and so every pinned crash sweep, depends on it. *)

let count_call t counter ~first ~last ~len =
  match counter with
  | Obs.Counters.Writes -> count_write t ~lines:(last - first + 1) ~len
  | c -> count c

let span t ~first ~last ~len counter body a b c =
  if last - first > 1 then
    with_lines t ~first ~last (fun () ->
        Crash.check t.crash_ctl;
        count_call t counter ~first ~last ~len;
        body t a b c)
  else begin
    let sa = stripe_of t first in
    let sb = if last = first then sa else stripe_of t last in
    let lo = if sa < sb then sa else sb and hi = if sa < sb then sb else sa in
    Mutex.lock t.stripes.(lo);
    if hi <> lo then Mutex.lock t.stripes.(hi);
    match
      Crash.check t.crash_ctl;
      count_call t counter ~first ~last ~len;
      body t a b c
    with
    | result ->
        if hi <> lo then Mutex.unlock t.stripes.(hi);
        Mutex.unlock t.stripes.(lo);
        maybe_yield t;
        result
    | exception e ->
        if hi <> lo then Mutex.unlock t.stripes.(hi);
        Mutex.unlock t.stripes.(lo);
        raise e
  end

(* {3 Bodies} *)

(* Loads.  [get_int] serves the byte and native-int accessors: fusing the
   [Int64] conversion into the body keeps the word unboxed, where an
   [int64] crossing a function boundary costs one minor allocation. *)
let get_int t base len () =
  if len = 1 then Char.code (Bytes.get t.volatile base)
  else Int64.to_int (Bytes.get_int64_le t.volatile base)

let get_int64 t base _len () = Bytes.get_int64_le t.volatile base
let get_bytes t base len () = Bytes.sub t.volatile base len

(* A written line is dirty; an auto-flush device writes it back at once. *)
let mark_written t index =
  t.dirty.(index) <- true;
  if t.auto_flush then flush_line t index

(* Write [len] bytes of [src] at [base], line by line, consulting the crash
   scheduler once per touched line (multi-line writes are not atomic). *)
let put_bytes t base src len =
  for index = line_of t base to line_of t (base + len - 1) do
    let line_start = index * t.line_size in
    let line_end = min (line_start + t.line_size) t.size in
    let seg_start = max base line_start in
    let seg_len = min (base + len) line_end - seg_start in
    (if t.faults.armed then
       (* In-flight content: this write's segment of the line — the
          store-plus-writeback the crash interrupts. *)
       step_fault t ~index ~seg_start ~seg_len ~src
         ~src_off:(seg_start - base)
     else Crash.step t.crash_ctl);
    Bytes.blit src (seg_start - base) t.volatile seg_start seg_len;
    mark_written t index
  done

(* Word stores.  A word inside one line is one crash point and never tears
   (8-byte hardware atomicity); a word straddling two lines is a two-line
   write, one crash point per line. *)
let straddles t base len = line_of t (base + len - 1) <> line_of t base

let put_straddling t base v =
  let src = Bytes.create 8 in
  Bytes.set_int64_le src 0 v;
  put_bytes t base src 8

let put_int64 t base v _len =
  if straddles t base 8 then put_straddling t base v
  else begin
    Crash.step t.crash_ctl;
    Bytes.set_int64_le t.volatile base v;
    mark_written t (line_of t base)
  end

let put_int t base v len =
  if straddles t base len then put_straddling t base (Int64.of_int v)
  else begin
    Crash.step t.crash_ctl;
    if len = 1 then Bytes.set t.volatile base (Char.chr v)
    else Bytes.set_int64_le t.volatile base (Int64.of_int v);
    mark_written t (line_of t base)
  end

(* The CAS reads, then writes on a match, with one crash step and no crash
   point in between: a hardware CAS instruction. *)
let cas_word t base expected desired =
  Crash.step t.crash_ctl;
  if Int64.equal (Bytes.get_int64_le t.volatile base) expected then begin
    count_write t ~lines:1 ~len:8;
    Bytes.set_int64_le t.volatile base desired;
    mark_written t (line_of t base);
    true
  end
  else false

(* Eager flush of lines [first..last]: one crash step per line, so a crash
   can land between lines, then the dirty ones are written back. *)
let persist_lines t first last () =
  for index = first to last do
    (if t.faults.armed then begin
       (* In-flight content: the whole dirty line about to be written back
          (a clean line has nothing in flight and cannot tear). *)
       let line_start = index * t.line_size in
       let seg_len =
         if t.dirty.(index) then min t.line_size (t.size - line_start) else 0
       in
       step_fault t ~index ~seg_start:line_start ~seg_len ~src:t.volatile
         ~src_off:line_start
     end
     else Crash.step t.crash_ctl);
    if t.dirty.(index) then flush_line t index
  done

(* Coalesced flush of one line: the same crash step as the eager body — so
   crash-point numbering is identical in both modes and an [At_op] plan
   lands at the same operation either way — but a dirty line is only marked
   pending.  True iff this call newly marked it; the caller logs newly
   marked lines once the stripes are released (see [pending_log]). *)
let mark_line t index =
  Crash.step t.crash_ctl;
  if t.dirty.(index) && not t.pending.(index) then begin
    t.pending.(index) <- true;
    true
  end
  else false

(* The newly marked lines of a one- or two-line span, as a bit set: bit 0
   for [first], bit 1 for [last] — no list, so no allocation. *)
let mark_pending t first last () =
  let a = mark_line t first in
  let b = last <> first && mark_line t last in
  (if a then 1 else 0) lor if b then 2 else 0

let mark_pending_wide t first last marked =
  for index = first to last do
    if mark_line t index then marked := index :: !marked
  done

(* {3 Operations}

   Each public operation is one timing guard around its body: while
   observability is off, [Obs.Probe.start] is one atomic load and a branch
   and no clock is read.  The latency window surrounds the lock acquisition
   and the locked body, so contention shows up in the histograms — that is
   the point of measuring.  No sample is recorded when the body raises: a
   crash signal aborts the operation, so there is no completed latency to
   report.

   Zero-length reads, writes and flushes all consult the crash scheduler
   exactly once, via [Crash.check]: a crashed device refuses them like any
   other operation, but they never count as a crash {e point}, so
   crash-point sweeps see the same op numbering whether or not a protocol
   issues degenerate empty calls.  They still count as one call each. *)

(* Reads are not scheduling points, but the model checker's reduction
   needs them to detect read/write races between coarser transitions
   (crash.mli, "Scheduler hook"). *)
let load t off ~len body =
  let base = Offset.to_int off in
  let first = line_of t base and last = line_of t (base + len - 1) in
  Crash.note_read t.crash_ctl ~first_line:first ~last_line:last;
  if t.flush_mode = Coalesced then read_drain t ~first ~last;
  span t ~first ~last ~len Reads body base len ()

(* Stores are scheduling points for the cooperative model checker, taken
   before any stripe lock so a suspended fiber holds no device mutex.  The
   footprint names the covered lines so partial-order reduction can tell
   whether this store commutes with a neighbour's op. *)
let store t off ~len body v =
  let base = Offset.to_int off in
  let first = line_of t base and last = line_of t (base + len - 1) in
  Crash.sched_point t.crash_ctl ~kind:Crash.Write ~first_line:first
    ~last_line:last ~persists:t.auto_flush;
  span t ~first ~last ~len Writes body base v len

let read_bytes t ~off ~len =
  check_range t off len;
  let t0 = Obs.Probe.start () in
  let result =
    if len = 0 then begin
      Crash.check t.crash_ctl;
      count Reads;
      Bytes.empty
    end
    else load t off ~len get_bytes
  in
  Obs.Probe.stop Pmem_read t0;
  result

let write_bytes t ~off src =
  let len = Bytes.length src in
  check_range t off len;
  let t0 = Obs.Probe.start () in
  if len = 0 then begin
    Crash.check t.crash_ctl;
    count_write t ~lines:0 ~len:0
  end
  else store t off ~len put_bytes src;
  Obs.Probe.stop Pmem_write t0

let read_int_sized t off len =
  check_range t off len;
  let t0 = Obs.Probe.start () in
  let v = load t off ~len get_int in
  Obs.Probe.stop Pmem_read t0;
  v

let write_int_sized t off len v =
  check_range t off len;
  let t0 = Obs.Probe.start () in
  store t off ~len put_int v;
  Obs.Probe.stop Pmem_write t0

let read_byte t off = read_int_sized t off 1

let write_byte t off b =
  if b < 0 || b > 255 then invalid_arg "Pmem.write_byte: not a byte";
  write_int_sized t off 1 b

let read_int t off = read_int_sized t off 8
let write_int t off v = write_int_sized t off 8 v

let read_int64 t off =
  check_range t off 8;
  let t0 = Obs.Probe.start () in
  let v = load t off ~len:8 get_int64 in
  Obs.Probe.stop Pmem_read t0;
  v

let write_int64 t off v =
  check_range t off 8;
  let t0 = Obs.Probe.start () in
  store t off ~len:8 put_int64 v;
  Obs.Probe.stop Pmem_write t0

let cas_int64 t off ~expected ~desired =
  check_range t off 8;
  let base = Offset.to_int off in
  if straddles t base 8 then
    invalid_arg "Pmem.cas_int64: word crosses a cache line";
  let index = line_of t base in
  let t0 = Obs.Probe.start () in
  Crash.sched_point t.crash_ctl ~kind:Crash.Cas ~first_line:index
    ~last_line:index ~persists:t.auto_flush;
  (* The CAS reads the word before deciding: a dependent read like any
     other, so a pending line is drained first. *)
  if t.flush_mode = Coalesced then read_drain t ~first:index ~last:index;
  let swapped =
    span t ~first:index ~last:index ~len:8 Reads cas_word base expected
      desired
  in
  Obs.Probe.stop Pmem_cas t0;
  swapped

let flush t ~off ~len =
  if len < 0 then invalid_arg "Pmem.flush: negative length";
  check_range t off len;
  let t0 = Obs.Probe.start () in
  (if len = 0 then begin
     Crash.check t.crash_ctl;
     count
       (match t.flush_mode with Eager -> Flushes | Coalesced -> Flushes_elided)
   end
   else begin
     let base = Offset.to_int off in
     let first = line_of t base and last = line_of t (base + len - 1) in
     Crash.sched_point t.crash_ctl ~kind:Crash.Flush ~first_line:first
       ~last_line:last ~persists:true;
     match t.flush_mode with
     | Eager -> span t ~first ~last ~len Flushes persist_lines first last ()
     | Coalesced when last - first <= 1 ->
         let marked =
           span t ~first ~last ~len Flushes_elided mark_pending first last ()
         in
         if marked land 1 <> 0 then log_append t first;
         if marked land 2 <> 0 then log_append t last
     | Coalesced ->
         let marked = ref [] in
         span t ~first ~last ~len Flushes_elided mark_pending_wide first last
           marked;
         List.iter (log_append t) (List.rev !marked)
   end);
  Obs.Probe.stop Pmem_flush t0

let flush_byte t off = flush t ~off ~len:1

(* Persist barriers.  In eager mode both are complete no-ops — not even a
   [Crash.check] — so sprinkling them through [Exec]/[Driver] leaves the
   eager crash-point numbering and counter totals byte-identical to the
   pre-coalescer behaviour. *)

let persist_barrier t =
  match t.flush_mode with
  | Eager -> ()
  | Coalesced ->
      Crash.check t.crash_ctl;
      drain_own t

let drain_all t =
  match t.flush_mode with
  | Eager -> ()
  | Coalesced ->
      Crash.check t.crash_ctl;
      drain_every_log t

let crash t =
  (* Reset the pending logs first, without stripes held (lock order: log
     before stripe).  An entry appended by a racing flush after this reset
     is neutralised below — clearing every pending bit under the stripes
     makes any late entry stale, and drains skip stale entries. *)
  Array.iter
    (fun log ->
      Mutex.lock log.log_mu;
      log.log_len <- 0;
      Mutex.unlock log.log_mu)
    t.logs;
  with_all_lines t (fun () ->
      count Crashes;
      Crash.trigger t.crash_ctl;
      Array.iteri
        (fun index dirty ->
          if dirty then begin
            let survives =
              match t.policy with
              | Lose_all -> false
              | Lose_none -> true
              | Lose_random _ -> Random.State.bool t.crash_rng
            in
            if survives then begin
              persist_line t index;
              count Lines_survived
            end
            else begin
              t.dirty.(index) <- false;
              t.pending.(index) <- false;
              count Lines_lost
            end
          end)
        t.dirty;
      (* Reboot visibility: the cache is empty, the persistent image is all
         there is. *)
      Backend.blit_to t.backend ~off:0 ~dst:t.volatile ~dst_off:0 ~len:t.size)

let restart t =
  Crash.reset t.crash_ctl;
  if t.faults.armed then apply_bitflips t

let crash_and_restart t =
  crash t;
  restart t

let peek_volatile t ~off ~len =
  check_range t off len;
  if len = 0 then Bytes.empty
  else
    with_all_lines t (fun () -> Bytes.sub t.volatile (Offset.to_int off) len)

let peek_persistent t ~off ~len =
  check_range t off len;
  if len = 0 then Bytes.empty
  else
    with_all_lines t (fun () ->
        Backend.read t.backend ~off:(Offset.to_int off) ~len)

let dirty_line_count t =
  with_all_lines t (fun () ->
      Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 t.dirty)

let is_dirty t off =
  check_range t off 1;
  let index = Layout.line_index ~line_size:t.line_size off in
  with_lines t ~first:index ~last:index (fun () -> t.dirty.(index))

let pending_line_count t =
  with_all_lines t (fun () ->
      Array.fold_left (fun acc p -> if p then acc + 1 else acc) 0 t.pending)

let is_pending t off =
  check_range t off 1;
  let index = Layout.line_index ~line_size:t.line_size off in
  with_lines t ~first:index ~last:index (fun () -> t.pending.(index))

let unsafe_break_drain ?(skip = 1) t = t.drain_breakage <- skip
