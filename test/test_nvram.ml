(* Unit tests for the simulated persistent-memory device: cache-line
   semantics, flush atomicity, crash policies, crash scheduling, offsets,
   layout helpers and the file backend. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Layout = Nvram.Layout
module Backend = Nvram.Backend
module Counters = Obs.Counters

let off = Offset.of_int

(* The counter ledger is global: a test reads the events it caused as the
   change of a [Counters.totals] field across [f]. *)
let counted f =
  let before = Counters.totals Obs.Probe.counters in
  f ();
  let after = Counters.totals Obs.Probe.counters in
  fun (field : Counters.totals -> int) -> field after - field before

let test_offset_basics () =
  Alcotest.(check int) "roundtrip" 42 (Offset.to_int (off 42));
  Alcotest.(check bool) "null" true (Offset.is_null Offset.null);
  Alcotest.(check int) "add" 50 (Offset.to_int (Offset.add (off 42) 8));
  Alcotest.(check int) "diff" 8 (Offset.diff (off 50) (off 42));
  Alcotest.check_raises "negative" (Invalid_argument "Offset.of_int: negative offset")
    (fun () -> ignore (off (-1)));
  Alcotest.check_raises "add underflow"
    (Invalid_argument "Offset.add: negative result") (fun () ->
      ignore (Offset.add (off 1) (-2)))

let test_layout () =
  Layout.check_line_size 64;
  Alcotest.check_raises "line size 0" (Invalid_argument "Layout: line size 0 is not a positive power of 2")
    (fun () -> Layout.check_line_size 0);
  Alcotest.check_raises "line size 48" (Invalid_argument "Layout: line size 48 is not a positive power of 2")
    (fun () -> Layout.check_line_size 48);
  Alcotest.(check int) "line_index" 1 (Layout.line_index ~line_size:64 (off 64));
  Alcotest.(check int) "line_index mid" 1 (Layout.line_index ~line_size:64 (off 127));
  Alcotest.(check int) "align_up" 128 (Layout.align_up ~line_size:64 65);
  Alcotest.(check int) "align_up exact" 64 (Layout.align_up ~line_size:64 64);
  Alcotest.(check bool) "same_line yes" true (Layout.same_line ~line_size:64 (off 56) ~len:8);
  Alcotest.(check bool) "same_line no" false (Layout.same_line ~line_size:64 (off 60) ~len:8);
  Alcotest.(check (pair int int)) "covering" (0, 2)
    (Layout.lines_covering ~line_size:64 (off 0) ~len:129)

let test_read_write () =
  let p = Pmem.create ~size:1024 () in
  Pmem.write_byte p (off 10) 0xAB;
  Alcotest.(check int) "byte" 0xAB (Pmem.read_byte p (off 10));
  Pmem.write_int64 p (off 16) 0x1122334455667788L;
  Alcotest.(check int64) "int64" 0x1122334455667788L (Pmem.read_int64 p (off 16));
  Pmem.write_int p (off 24) (-12345);
  Alcotest.(check int) "int" (-12345) (Pmem.read_int p (off 24));
  Pmem.write_bytes p ~off:(off 100) (Bytes.of_string "hello");
  Alcotest.(check string) "bytes" "hello"
    (Bytes.to_string (Pmem.read_bytes p ~off:(off 100) ~len:5));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Pmem: range [1020, 1028) outside device of size 1024")
    (fun () -> ignore (Pmem.read_int64 p (off 1020)))

let test_volatility_lose_all () =
  let p = Pmem.create ~policy:Pmem.Lose_all ~size:1024 () in
  Pmem.write_int p (off 0) 1;
  Pmem.flush p ~off:(off 0) ~len:8;
  Pmem.write_int p (off 64) 2;
  (* not flushed *)
  Alcotest.(check int) "visible before crash" 2 (Pmem.read_int p (off 64));
  Pmem.crash_and_restart p;
  Alcotest.(check int) "flushed survives" 1 (Pmem.read_int p (off 0));
  Alcotest.(check int) "unflushed lost" 0 (Pmem.read_int p (off 64))

let test_volatility_lose_none () =
  let p = Pmem.create ~policy:Pmem.Lose_none ~size:1024 () in
  Pmem.write_int p (off 64) 7;
  Pmem.crash_and_restart p;
  Alcotest.(check int) "eADR keeps dirty lines" 7 (Pmem.read_int p (off 64))

let test_volatility_lose_random_deterministic () =
  let run () =
    let p = Pmem.create ~policy:(Pmem.Lose_random 7) ~size:4096 () in
    for i = 0 to 31 do
      Pmem.write_int p (off (i * 64)) (i + 1)
    done;
    Pmem.crash_and_restart p;
    List.init 32 (fun i -> Pmem.read_int p (off (i * 64)))
  in
  let a = run () and b = run () in
  Alcotest.(check (list int)) "same seed, same losses" a b;
  Alcotest.(check bool) "some lines lost" true (List.exists (fun v -> v = 0) a);
  Alcotest.(check bool) "some lines survive" true (List.exists (fun v -> v <> 0) a)

let test_flush_is_per_line () =
  let p = Pmem.create ~size:1024 () in
  Pmem.write_int p (off 0) 1;
  Pmem.write_int p (off 64) 2;
  Pmem.flush p ~off:(off 0) ~len:8;
  Pmem.crash_and_restart p;
  Alcotest.(check int) "line 0 flushed" 1 (Pmem.read_int p (off 0));
  Alcotest.(check int) "line 1 not flushed" 0 (Pmem.read_int p (off 64))

let test_auto_flush () =
  let p = Pmem.create ~auto_flush:true ~size:1024 () in
  Pmem.write_int p (off 128) 9;
  Pmem.crash_and_restart p;
  Alcotest.(check int) "auto-flush persists writes" 9 (Pmem.read_int p (off 128));
  Alcotest.(check int) "no dirty lines" 0 (Pmem.dirty_line_count p)

let test_multiline_write_tears () =
  (* A write spanning two lines consults the scheduler per line: crashing on
     the second line persists only the first (Fig. 5's partial frame). *)
  let p = Pmem.create ~auto_flush:true ~size:1024 () in
  Crash.arm (Pmem.crash_ctl p) (Crash.At_op 2);
  let data = Bytes.make 128 'x' in
  (try
     Pmem.write_bytes p ~off:(off 0) data;
     Alcotest.fail "expected crash"
   with Crash.Crash_now -> ());
  Pmem.crash_and_restart p;
  let persisted = Pmem.read_bytes p ~off:(off 0) ~len:128 in
  Alcotest.(check char) "first line written" 'x' (Bytes.get persisted 0);
  Alcotest.(check char) "second line torn away" '\000' (Bytes.get persisted 64)

let test_cas_int64 () =
  let p = Pmem.create ~size:1024 () in
  Pmem.write_int64 p (off 0) 5L;
  Alcotest.(check bool) "cas succeeds" true
    (Pmem.cas_int64 p (off 0) ~expected:5L ~desired:6L);
  Alcotest.(check int64) "cas applied" 6L (Pmem.read_int64 p (off 0));
  Alcotest.(check bool) "cas fails" false
    (Pmem.cas_int64 p (off 0) ~expected:5L ~desired:7L);
  Alcotest.(check int64) "cas not applied" 6L (Pmem.read_int64 p (off 0));
  Alcotest.check_raises "cas across lines"
    (Invalid_argument "Pmem.cas_int64: word crosses a cache line") (fun () ->
      ignore (Pmem.cas_int64 p (off 60) ~expected:0L ~desired:1L))

let test_crash_plan_at_op () =
  let p = Pmem.create ~size:1024 () in
  Crash.arm (Pmem.crash_ctl p) (Crash.At_op 3);
  Pmem.write_int p (off 0) 1;
  Pmem.write_int p (off 0) 2;
  (try
     Pmem.write_int p (off 0) 3;
     Alcotest.fail "expected crash on third persistence op"
   with Crash.Crash_now -> ());
  (* every further operation refuses too *)
  (try
     ignore (Pmem.read_int p (off 0));
     Alcotest.fail "expected crashed flag to stick"
   with Crash.Crash_now -> ());
  Pmem.crash_and_restart p;
  Alcotest.(check int) "third write did not land" 0 (Pmem.read_int p (off 0))

let test_crash_plan_reads_free () =
  let p = Pmem.create ~size:1024 () in
  Crash.arm (Pmem.crash_ctl p) (Crash.At_op 1);
  for _ = 1 to 10 do
    ignore (Pmem.read_int p (off 0))
  done;
  (try
     Pmem.write_int p (off 0) 1;
     Alcotest.fail "expected crash on first write"
   with Crash.Crash_now -> ())

let test_crash_random_deterministic () =
  let count_ops seed =
    let p = Pmem.create ~size:1024 () in
    Crash.arm (Pmem.crash_ctl p) (Crash.Random { seed; probability = 0.05 });
    let n = ref 0 in
    (try
       for _ = 1 to 10_000 do
         Pmem.write_int p (off 0) 1;
         incr n
       done
     with Crash.Crash_now -> ());
    !n
  in
  Alcotest.(check int) "deterministic" (count_ops 3) (count_ops 3);
  Alcotest.(check bool) "fires eventually" true (count_ops 3 < 10_000)

let test_peek_views () =
  let p = Pmem.create ~size:1024 () in
  Pmem.write_int p (off 0) 1;
  Pmem.flush p ~off:(off 0) ~len:8;
  Pmem.write_int p (off 0) 2;
  Alcotest.(check int64) "volatile view" 2L
    (Bytes.get_int64_le (Pmem.peek_volatile p ~off:(off 0) ~len:8) 0);
  Alcotest.(check int64) "persistent view" 1L
    (Bytes.get_int64_le (Pmem.peek_persistent p ~off:(off 0) ~len:8) 0);
  Alcotest.(check bool) "dirty" true (Pmem.is_dirty p (off 0))

let test_stats () =
  let p = Pmem.create ~size:1024 () in
  let n =
    counted (fun () ->
        ignore (Pmem.read_int p (off 0));
        Pmem.write_int p (off 0) 1;
        Pmem.flush p ~off:(off 0) ~len:8)
  in
  Alcotest.(check int) "reads" 1 (n (fun c -> c.Counters.reads));
  Alcotest.(check int) "writes" 1 (n (fun c -> c.Counters.writes));
  Alcotest.(check int) "flushes" 1 (n (fun c -> c.Counters.flushes));
  Alcotest.(check int) "lines flushed" 1 (n (fun c -> c.Counters.lines_flushed));
  Obs.Probe.reset ();
  Alcotest.(check int) "reset" 0
    (Counters.totals Obs.Probe.counters).Counters.writes

let test_stats_zero_length () =
  (* counters measure API calls, not bytes: a zero-length read, write or
     flush each count exactly one call (see counters.mli) *)
  let p = Pmem.create ~size:1024 () in
  let n =
    counted (fun () ->
        ignore (Pmem.read_bytes p ~off:(off 0) ~len:0);
        Pmem.write_bytes p ~off:(off 0) Bytes.empty;
        Pmem.flush p ~off:(off 0) ~len:0)
  in
  Alcotest.(check int) "zero-length read counts" 1 (n (fun c -> c.Counters.reads));
  Alcotest.(check int) "zero-length write counts" 1
    (n (fun c -> c.Counters.writes));
  Alcotest.(check int) "zero-length flush counts" 1
    (n (fun c -> c.Counters.flushes));
  Alcotest.(check int) "no lines flushed" 0
    (n (fun c -> c.Counters.lines_flushed));
  Alcotest.(check int) "nothing dirtied" 0 (Pmem.dirty_line_count p)

(* Accounting rules (counters.mli): a CAS is a read plus, when it swaps, a
   write; an auto-flush write persists, and counts, its line. *)
let test_cas_and_auto_flush_accounting () =
  let p = Pmem.create ~size:1024 () in
  let swap = counted (fun () ->
      ignore (Pmem.cas_int64 p (off 0) ~expected:0L ~desired:1L)) in
  Alcotest.(check int) "swapping CAS: one read" 1 (swap (fun c -> c.Counters.reads));
  Alcotest.(check int) "swapping CAS: one write" 1
    (swap (fun c -> c.Counters.writes));
  let miss = counted (fun () ->
      ignore (Pmem.cas_int64 p (off 0) ~expected:0L ~desired:2L)) in
  Alcotest.(check int) "failed CAS: one read" 1 (miss (fun c -> c.Counters.reads));
  Alcotest.(check int) "failed CAS: no write" 0 (miss (fun c -> c.Counters.writes));
  let a = Pmem.create ~auto_flush:true ~size:1024 () in
  let w = counted (fun () -> Pmem.write_int a (off 64) 5) in
  Alcotest.(check int) "auto-flush write: one line" 1
    (w (fun c -> c.Counters.lines_flushed));
  Alcotest.(check int) "auto-flush write: no flush call" 0
    (w (fun c -> c.Counters.flushes))

let test_zero_length_crash_semantics () =
  (* every zero-length op consults the scheduler exactly once, via
     Crash.check: it raises after a crash has fired, but is never itself a
     crash point (Crash.ops does not advance) — the rule is symmetric
     across read, write and flush (see pmem.mli) *)
  let p = Pmem.create ~size:1024 () in
  let ctl = Pmem.crash_ctl p in
  Crash.arm ctl (Crash.At_op 1);
  ignore (Pmem.read_bytes p ~off:(off 0) ~len:0);
  Pmem.write_bytes p ~off:(off 0) Bytes.empty;
  Pmem.flush p ~off:(off 0) ~len:0;
  Alcotest.(check int) "no op consumed a crash point" 0 (Crash.ops ctl);
  Alcotest.(check bool) "armed plan did not fire" false (Crash.crashed ctl);
  Crash.trigger ctl;
  Alcotest.check_raises "zero-length read after crash" Crash.Crash_now
    (fun () -> ignore (Pmem.read_bytes p ~off:(off 0) ~len:0));
  Alcotest.check_raises "zero-length write after crash" Crash.Crash_now
    (fun () -> Pmem.write_bytes p ~off:(off 0) Bytes.empty);
  Alcotest.check_raises "zero-length flush after crash" Crash.Crash_now
    (fun () -> Pmem.flush p ~off:(off 0) ~len:0)

let with_temp_file f =
  let path = Filename.temp_file "pstack_nvram" ".img" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_file_backend_persistence () =
  with_temp_file (fun path ->
      let size = 4096 in
      let () =
        let backend = Backend.file ~path ~size () in
        let p = Pmem.create ~backend ~size () in
        Pmem.write_int p (off 0) 123;
        Pmem.flush p ~off:(off 0) ~len:8;
        Pmem.write_int p (off 64) 456 (* never flushed *);
        Backend.close backend
      in
      (* Reopen as a fresh process would. *)
      let backend = Backend.file ~path ~size () in
      let p = Pmem.create ~backend ~size () in
      Alcotest.(check int) "flushed data in file" 123 (Pmem.read_int p (off 0));
      Alcotest.(check int) "unflushed data not in file" 0
        (Pmem.read_int p (off 64));
      Backend.close backend)

let test_file_backend_size_check () =
  with_temp_file (fun path ->
      let backend = Backend.file ~path ~size:1024 () in
      Backend.close backend;
      Alcotest.check_raises "size mismatch"
        (Invalid_argument
           (Printf.sprintf "Backend.file: %s has size 1024, expected 2048" path))
        (fun () -> ignore (Backend.file ~path ~size:2048 ())))

(* Persists and reads split a range into a byte head, 8-byte words and a
   byte tail; every split of every alignment must copy exactly the range. *)
let test_backend_copy_splits () =
  let size = 64 in
  let b = Backend.memory ~size in
  let model = Bytes.make size '\000' in
  let fill = ref 0 in
  for off = 0 to 15 do
    for len = 0 to 40 do
      let src =
        Bytes.init (len + 3) (fun _ ->
            incr fill;
            Char.chr (!fill land 255))
      in
      Backend.persist b ~off ~src ~src_off:3 ~len;
      Bytes.blit src 3 model off len;
      Alcotest.(check bytes)
        (Printf.sprintf "image after persist off=%d len=%d" off len)
        model (Backend.read b ~off:0 ~len:size);
      Alcotest.(check bytes)
        (Printf.sprintf "read off=%d len=%d" off len)
        (Bytes.sub model off len) (Backend.read b ~off ~len)
    done
  done

(* A second backend on the same path shares the first one's mapping: a
   flushed line is in the image at once, an unflushed write is not.  That
   is what keeps a [kill -9] durable — the page cache holds every persist
   and nothing else. *)
let test_file_backend_shared () =
  with_temp_file (fun path ->
      let size = 4096 in
      let backend = Backend.file ~path ~size () in
      let p = Pmem.create ~backend ~size () in
      let other = Backend.file ~path ~size () in
      Pmem.write_int p (off 0) 123;
      Pmem.flush p ~off:(off 0) ~len:8;
      Pmem.write_int p (off 64) 456 (* never flushed *);
      let word off = Bytes.get_int64_le (Backend.read other ~off ~len:8) 0 in
      Alcotest.(check int64) "flushed line visible" 123L (word 0);
      Alcotest.(check int64) "unflushed write invisible" 0L (word 64);
      Backend.close other;
      Backend.close backend)

let test_file_backend_flip_bit () =
  with_temp_file (fun path ->
      let backend = Backend.file ~path ~size:1024 () in
      Backend.flip_bit backend ~off:100 ~bit:3;
      Backend.close backend;
      let backend = Backend.file ~path ~size:1024 () in
      Alcotest.(check int) "flipped bit in the image" 8
        (Char.code (Bytes.get (Backend.read backend ~off:100 ~len:1) 0));
      Backend.close backend)

(* The [syscw] line of /proc/self/io: write system calls this process has
   made, or [None] where the file cannot be read. *)
let syscw () =
  match In_channel.with_open_text "/proc/self/io" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "syscw: %d" Fun.id)

(* A persist to the file backend is a store into the mapping, not a write
   system call: 1,000 flushes of distinct lines make no [write] at all. *)
let test_file_backend_persist_no_syscall () =
  with_temp_file (fun path ->
      let n = 1000 in
      let size = n * 64 in
      let backend = Backend.file ~path ~size () in
      let p = Pmem.create ~backend ~size () in
      match syscw () with
      | None ->
          Backend.close backend;
          Alcotest.skip ()
      | Some before ->
          for i = 0 to n - 1 do
            Pmem.write_int p (off (i * 64)) i;
            Pmem.flush p ~off:(off (i * 64)) ~len:8
          done;
          let after = Option.get (syscw ()) in
          Backend.close backend;
          Alcotest.(check int) "write syscalls for 1000 persists" 0
            (after - before))

(* Minor page faults this process has taken (field 10 of /proc/self/stat),
   or [None] where the file cannot be read. *)
let minor_faults () =
  match In_channel.with_open_text "/proc/self/stat" In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      (* Fields 3 onwards follow the parenthesised command name, so field
         10 is the eighth after it. *)
      let rest = String.rindex text ')' + 2 in
      let tail = String.sub text rest (String.length text - rest) in
      let fields = String.split_on_char ' ' tail in
      Option.bind (List.nth_opt fields 7) int_of_string_opt

(* A start costs what it touches, not the size of the device: opening a
   64 MiB image and reading one word faults in a few hundred pages (mostly
   the one-byte-per-line state map), not the 16 384 pages of the image
   that copying it into the cache would touch. *)
let test_file_backend_demand_load () =
  with_temp_file (fun path ->
      let size = 64 lsl 20 in
      match minor_faults () with
      | None -> Alcotest.skip ()
      | Some before ->
          let backend = Backend.file ~path ~size () in
          let p = Pmem.create ~backend ~size () in
          Alcotest.(check int) "an all-zero image reads 0" 0
            (Pmem.read_int p (off (size / 2)));
          let faults = Option.get (minor_faults ()) - before in
          Backend.close backend;
          let bound = size / 4096 / 16 in
          if faults > bound then
            Alcotest.failf "create + one read took %d minor faults (bound %d)"
              faults bound)

(* A crash that fires the armed tear plan mangles exactly the interrupted
   line: a prefix of the in-flight bytes persists, at most 8 following
   bytes are shredded, the rest keep their old durable content — and the
   whole outcome replays byte-for-byte from the fault seed. *)
let test_torn_write_fault () =
  let run () =
    let p = Pmem.create ~size:1024 () in
    Pmem.write_bytes p ~off:(off 0) (Bytes.make 64 'o');
    Pmem.flush p ~off:(off 0) ~len:64;
    Pmem.arm_faults p
      { Crash.tear = Crash.At_op 1; bitflip = Crash.Never; fault_seed = 42 };
    Pmem.write_bytes p ~off:(off 0) (Bytes.make 64 'n');
    Crash.arm (Pmem.crash_ctl p) (Crash.At_op 1);
    let n =
      counted (fun () ->
          (try
             Pmem.flush p ~off:(off 0) ~len:64;
             Alcotest.fail "expected crash"
           with Crash.Crash_now -> ());
          Pmem.crash_and_restart p)
    in
    Alcotest.(check int) "one torn line" 1
      (n (fun c -> c.Counters.faults_injected));
    (* after the reboot the visible content IS the torn image *)
    Alcotest.(check bytes) "volatile view agrees with the torn image"
      (Pmem.peek_persistent p ~off:(off 0) ~len:64)
      (Pmem.read_bytes p ~off:(off 0) ~len:64);
    Pmem.peek_persistent p ~off:(off 0) ~len:64
  in
  let img = run () in
  (* structure: 'n'* then <= 8 shredded bytes then 'o'* — so everything
     past the leading run of new bytes plus the shred budget must be old *)
  let keep = ref 0 in
  while !keep < 64 && Bytes.get img !keep = 'n' do
    incr keep
  done;
  for i = !keep + 8 to 63 do
    Alcotest.(check char)
      (Printf.sprintf "byte %d keeps its old value" i)
      'o' (Bytes.get img i)
  done;
  Alcotest.(check bytes) "same seed, same tear" img (run ())

(* The bitflip plan fires on restart and rots 1-3 seeded bits, all of them
   inside the configured target regions. *)
let test_bitflip_on_restart () =
  let p = Pmem.create ~size:1024 () in
  Pmem.write_bytes p ~off:(off 0) (Bytes.make 1024 '\000');
  Pmem.flush p ~off:(off 0) ~len:1024;
  Pmem.arm_faults p
    ~targets:[| (128, 64) |]
    { Crash.tear = Crash.Never; bitflip = Crash.At_op 1; fault_seed = 7 };
  let n = counted (fun () -> Pmem.crash_and_restart p) in
  let flipped = n (fun c -> c.Counters.faults_injected) in
  Alcotest.(check bool) "1-3 bits flipped" true (flipped >= 1 && flipped <= 3);
  let img = Pmem.peek_persistent p ~off:(off 0) ~len:1024 in
  let set_bits = ref 0 in
  Bytes.iteri
    (fun i b ->
      let c = Char.code b in
      if c <> 0 then begin
        Alcotest.(check bool)
          (Printf.sprintf "rot at %d lies inside the target region" i)
          true
          (i >= 128 && i < 192);
        for bit = 0 to 7 do
          if c land (1 lsl bit) <> 0 then incr set_bits
        done
      end)
    img;
  Alcotest.(check int) "image rot matches the counter" flipped !set_bits;
  (* reads see the rot immediately: the flip is write-through *)
  Alcotest.(check bytes) "volatile view agrees"
    (Bytes.sub img 128 64)
    (Pmem.read_bytes p ~off:(off 128) ~len:64)

let () =
  Alcotest.run "nvram"
    [
      ( "offset",
        [
          Alcotest.test_case "basics" `Quick test_offset_basics;
          Alcotest.test_case "layout helpers" `Quick test_layout;
        ] );
      ( "pmem",
        [
          Alcotest.test_case "read/write" `Quick test_read_write;
          Alcotest.test_case "lose-all policy" `Quick test_volatility_lose_all;
          Alcotest.test_case "lose-none policy" `Quick test_volatility_lose_none;
          Alcotest.test_case "lose-random deterministic" `Quick
            test_volatility_lose_random_deterministic;
          Alcotest.test_case "flush is per line" `Quick test_flush_is_per_line;
          Alcotest.test_case "auto-flush" `Quick test_auto_flush;
          Alcotest.test_case "multi-line write tears" `Quick
            test_multiline_write_tears;
          Alcotest.test_case "hardware CAS" `Quick test_cas_int64;
          Alcotest.test_case "peek views" `Quick test_peek_views;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "zero-length ops count" `Quick
            test_stats_zero_length;
          Alcotest.test_case "CAS and auto-flush accounting" `Quick
            test_cas_and_auto_flush_accounting;
          Alcotest.test_case "zero-length crash semantics" `Quick
            test_zero_length_crash_semantics;
        ] );
      ( "crash scheduling",
        [
          Alcotest.test_case "At_op plan" `Quick test_crash_plan_at_op;
          Alcotest.test_case "reads are not scheduled" `Quick
            test_crash_plan_reads_free;
          Alcotest.test_case "Random plan deterministic" `Quick
            test_crash_random_deterministic;
        ] );
      ( "file backend",
        [
          Alcotest.test_case "persistence across reopen" `Quick
            test_file_backend_persistence;
          Alcotest.test_case "size check" `Quick test_file_backend_size_check;
          Alcotest.test_case "copy splits" `Quick test_backend_copy_splits;
          Alcotest.test_case "shared mapping" `Quick test_file_backend_shared;
          Alcotest.test_case "flip_bit reaches the file" `Quick
            test_file_backend_flip_bit;
          Alcotest.test_case "persist makes no syscall" `Quick
            test_file_backend_persist_no_syscall;
          Alcotest.test_case "start loads lines on demand" `Quick
            test_file_backend_demand_load;
        ] );
      ( "media faults",
        [
          Alcotest.test_case "torn write" `Quick test_torn_write_fault;
          Alcotest.test_case "bit rot on restart" `Quick
            test_bitflip_on_restart;
        ] );
    ]
