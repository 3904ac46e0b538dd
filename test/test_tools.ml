(* Targeted tests for the operational surfaces: the image inspector, the
   driver's crash budget, device latency, dump corruption paths, the
   crash controller's kill bookkeeping, the bench gate and the model
   checker's equivalence leg. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module R = Runtime

let off = Offset.of_int

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let noop _ctx _args = 0L
let noop_recover _ctx _args = R.Registry.Complete 0L

let test_pp_image () =
  let pmem = Pmem.create ~size:(1 lsl 20) () in
  let registry = R.Registry.create () in
  R.Registry.register registry ~id:9 ~name:"nine" ~body:noop
    ~recover:noop_recover;
  let config =
    {
      R.System.workers = 2;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = 4;
      task_max_args = 16;
    }
  in
  let sys = R.System.create pmem ~registry ~config in
  ignore (R.System.submit sys ~func_id:9 ~args:Bytes.empty);
  (match R.System.run sys with `Completed -> () | `Crashed -> assert false);
  R.System.set_root sys (off 4242);
  let text = Format.asprintf "%a" R.System.pp_image pmem in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains text needle))
    [
      "workers: 2";
      "bounded(4096 B)";
      "user root: @4242";
      "1 submitted, 0 pending, 1 done";
      "func=9 done";
      "worker 0 stack";
      "heap:";
      "STACK-END";
    ]

let test_pp_image_requires_superblock () =
  let pmem = Pmem.create ~size:(1 lsl 16) () in
  Alcotest.check_raises "no superblock"
    (Invalid_argument "System.attach: no system superblock on this device")
    (fun () -> ignore (Format.asprintf "%a" R.System.pp_image pmem))

let test_driver_crash_budget () =
  (* a plan that fires immediately every era can never make progress *)
  let registry = R.Registry.create () in
  R.Registry.register registry ~id:9 ~name:"nine" ~body:noop
    ~recover:noop_recover;
  let pmem = Pmem.create ~size:(1 lsl 20) () in
  let config =
    {
      R.System.workers = 1;
      stack_kind = R.System.Bounded_stack 4096;
      task_capacity = 1;
      task_max_args = 16;
    }
  in
  Alcotest.check_raises "budget exceeded"
    (Failure "Driver.run_to_completion: crash budget exceeded") (fun () ->
      ignore
        (R.Driver.run_to_completion pmem ~registry ~config
           ~submit:(fun sys ->
             ignore (R.System.submit sys ~func_id:9 ~args:Bytes.empty))
           ~plan:(fun ~era:_ -> Crash.At_op 1)
           ~max_crashes:25 ()))

let test_kill_bookkeeping () =
  let c = Crash.create () in
  Alcotest.(check int) "no kills" 0 (Crash.kills_fired c);
  Crash.arm_kill c (Crash.At_op 2);
  Crash.step c;
  (try
     Crash.step c;
     Alcotest.fail "expected Thread_killed"
   with Crash.Thread_killed -> ());
  Alcotest.(check int) "one kill" 1 (Crash.kills_fired c);
  (* one-shot: no further kills without re-arming *)
  for _ = 1 to 10 do
    Crash.step c
  done;
  Alcotest.(check int) "still one" 1 (Crash.kills_fired c);
  Alcotest.(check bool) "system not crashed" false (Crash.crashed c)

let test_persist_delay () =
  let path = Filename.temp_file "pstack_delay" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let backend =
        Nvram.Backend.file ~persist_delay:0.002 ~path ~size:4096 ()
      in
      let pmem = Pmem.create ~backend ~size:4096 () in
      let t0 = Unix.gettimeofday () in
      for i = 0 to 9 do
        Pmem.write_int pmem (off (i * 64)) i;
        Pmem.flush pmem ~off:(off (i * 64)) ~len:8
      done;
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "latency applied" true (elapsed >= 0.015);
      Nvram.Backend.close backend)

let test_dump_corrupt_pointer () =
  let pmem = Pmem.create ~size:4096 () in
  (* a pointer frame aiming outside the device *)
  Pmem.write_bytes pmem ~off:(off 0)
    (Pstack.Frame.encode_pointer ~next:(off 100) ~marker:0x0);
  Pmem.write_int64 pmem (off 1) 99999999L (* corrupt the target *);
  let lines = Pstack.Dump.scan_region pmem ~view:Pstack.Dump.Volatile ~base:(off 0) in
  Alcotest.(check bool) "reports invalid tail" true
    (List.exists
       (function Pstack.Dump.Invalid_tail _ -> true | _ -> false)
       lines)

(* ------------------------------------------------------------------ *)
(* History-file ingestion: every malformed entry must carry file:line   *)

let parse_lines lines = Verify.History_io.of_lines ~file:"hist.txt" lines

let check_malformed name ~line ~needle lines =
  match parse_lines lines with
  | _ -> Alcotest.failf "%s: expected Malformed" name
  | exception Verify.History_io.Malformed { file; line = l; msg } ->
      Alcotest.(check string) (name ^ ": file") "hist.txt" file;
      Alcotest.(check int) (name ^ ": line") line l;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S mentioned in %S" name needle msg)
        true (contains msg needle)

let test_history_io_parses () =
  let h =
    parse_lines
      [ "# comment"; ""; "init 5"; "cas 5 6 ok"; "cas 9 1 fail"; "final 6" ]
  in
  Alcotest.(check int) "init" 5 h.Verify.History.init;
  Alcotest.(check int) "final" 6 h.Verify.History.final;
  Alcotest.(check int) "ops" 2 (List.length h.Verify.History.ops)

let test_history_io_line_numbers () =
  check_malformed "bad outcome" ~line:3 ~needle:"maybe"
    [ "init 0"; "cas 0 1 ok"; "cas 1 2 maybe"; "final 2" ];
  check_malformed "non-integer operand" ~line:2 ~needle:"six"
    [ "init 0"; "cas 5 six ok"; "final 2" ];
  check_malformed "non-integer init" ~line:1 ~needle:"x" [ "init x" ];
  check_malformed "unparseable entry" ~line:4 ~needle:"garbage"
    [ "init 0"; "cas 0 1 ok"; "final 1"; "garbage here" ];
  (* missing init/final point at the line after the last one *)
  check_malformed "missing init" ~line:3 ~needle:"init"
    [ "cas 0 1 ok"; "final 1" ];
  check_malformed "missing final" ~line:3 ~needle:"final"
    [ "init 0"; "cas 0 1 ok" ]

let test_history_io_round_trip () =
  let h =
    {
      Verify.History.init = 3;
      final = 7;
      ops =
        [
          { Verify.History.expected = 3; desired = 7; result = true };
          { Verify.History.expected = 3; desired = 9; result = false };
        ];
    }
  in
  let text = Format.asprintf "%a" Verify.History_io.pp h in
  let h' = parse_lines (String.split_on_char '\n' text) in
  Alcotest.(check bool) "round-trips" true (h = h')

let test_exec_live_blocks () =
  let pmem = Pmem.create ~size:(1 lsl 20) () in
  let registry = R.Registry.create () in
  let config =
    { R.System.default_config with workers = 1; stack_kind = R.System.Linked_stack 128 }
  in
  let sys = R.System.create pmem ~registry ~config in
  let ctx = R.System.ctx sys 0 in
  Alcotest.(check int) "one block when empty" 1
    (List.length (R.Exec.live_blocks ctx))

(* ------------------------------------------------------------------ *)
(* bench_gate: gate on throughput only, whatever other columns the rows
   carry.  Drives the built executable on generated JSON files. *)

let bench_gate_exe = Filename.concat (Filename.dirname Sys.argv.(0)) "../bin/bench_gate.exe"

let write_json path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{ \"rows\": [\n";
      output_string oc (String.concat ",\n" rows);
      output_string oc "\n] }\n")

let old_row ~bench ~workers ~ops =
  Printf.sprintf
    "{ \"bench\": \"%s\", \"workers\": %d, \"iters_per_worker\": 10, \
     \"total_ops\": 10, \"elapsed_s\": 0.1, \"ops_per_sec\": %.1f }"
    bench workers ops

let new_row ~bench ~workers ~ops =
  (* the current writer's shape: latency and flush columns after the
     throughput field *)
  Printf.sprintf
    "{ \"bench\": \"%s\", \"workers\": %d, \"iters_per_worker\": 10, \
     \"total_ops\": 10, \"elapsed_s\": 0.1, \"ops_per_sec\": %.1f, \
     \"p50_ns\": 1536.0, \"p95_ns\": 3072.0, \"p99_ns\": 6144.0, \
     \"flush_per_op\": 3.0005 }"
    bench workers ops

let run_gate ?(flags = "") baseline candidate =
  Sys.command
    (Printf.sprintf "%s --baseline %s --candidate %s %s > /dev/null"
       (Filename.quote bench_gate_exe) (Filename.quote baseline)
       (Filename.quote candidate) flags)

let in_temp name rows =
  let path = Filename.temp_file name ".json" in
  write_json path rows;
  path

let test_bench_gate_tolerates_new_columns () =
  let baseline =
    in_temp "gate_base"
      [
        old_row ~bench:"push_pop" ~workers:1 ~ops:1000.;
        old_row ~bench:"rcas" ~workers:1 ~ops:500.;
      ]
  in
  let candidate =
    in_temp "gate_cand"
      [
        new_row ~bench:"push_pop" ~workers:1 ~ops:1000.;
        new_row ~bench:"rcas" ~workers:1 ~ops:500.;
      ]
  in
  Alcotest.(check int) "old baseline vs new candidate passes" 0
    (run_gate baseline candidate);
  let regressed =
    in_temp "gate_regressed"
      [
        new_row ~bench:"push_pop" ~workers:1 ~ops:100.;
        new_row ~bench:"rcas" ~workers:1 ~ops:500.;
      ]
  in
  Alcotest.(check int) "regression still detected through new columns" 1
    (run_gate baseline regressed);
  List.iter Sys.remove [ baseline; candidate; regressed ]

let test_bench_gate_missing_row_fails () =
  (* a baseline row with no candidate counterpart used to be dropped by the
     pairing filter, letting the gate pass vacuously when a bench silently
     vanished from the output *)
  let baseline =
    in_temp "gate_base3"
      [
        old_row ~bench:"push_pop" ~workers:1 ~ops:1000.;
        old_row ~bench:"push_pop" ~workers:8 ~ops:900.;
      ]
  in
  let cand_missing =
    in_temp "gate_cand3" [ new_row ~bench:"push_pop" ~workers:1 ~ops:1000. ]
  in
  Alcotest.(check int) "vanished row fails the gate" 1
    (run_gate baseline cand_missing);
  Alcotest.(check int) "--allow-missing waives it" 0
    (run_gate ~flags:"--allow-missing" baseline cand_missing);
  (* the failure output must name the missing bench and worker count *)
  let out = Filename.temp_file "gate_out" ".txt" in
  ignore
    (Sys.command
       (Printf.sprintf "%s --baseline %s --candidate %s > %s"
          (Filename.quote bench_gate_exe) (Filename.quote baseline)
          (Filename.quote cand_missing) (Filename.quote out)));
  let ic = open_in out in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let contains needle =
    let n = String.length needle and h = String.length content in
    let rec go i =
      i + n <= h && (String.sub content i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "names the missing row" true
    (contains "push_pop/8w");
  List.iter Sys.remove [ baseline; cand_missing; out ]

let test_bench_gate_min_scaling () =
  let baseline =
    in_temp "gate_base4"
      [
        old_row ~bench:"push_pop" ~workers:1 ~ops:1000.;
        old_row ~bench:"push_pop" ~workers:8 ~ops:800.;
      ]
  in
  (* candidate scales at 0.8: below a 1.0 floor, above a 0.5 floor *)
  let candidate =
    in_temp "gate_cand4"
      [
        new_row ~bench:"push_pop" ~workers:1 ~ops:1000.;
        new_row ~bench:"push_pop" ~workers:8 ~ops:800.;
      ]
  in
  Alcotest.(check int) "scaling 0.8 passes a 0.5 floor" 0
    (run_gate ~flags:"--min-scaling 0.5" baseline candidate);
  Alcotest.(check int) "scaling 0.8 fails a 1.0 floor" 1
    (run_gate ~flags:"--min-scaling 1.0" baseline candidate);
  Alcotest.(check int) "no floor: plain row comparison still passes" 0
    (run_gate baseline candidate);
  List.iter Sys.remove [ baseline; candidate ]

(* --max-flush-per-op: deterministic absolute budgets on the flush_per_op
   column.  Within budget passes, over budget fails with the offending row
   named in the verdict, and a budget that cannot be checked — no matching
   candidate row, or matching rows without the column — is a hard parse
   error (exit 2), never a vacuous pass. *)
let run_gate_capturing ?(flags = "") baseline candidate =
  let out = Filename.temp_file "gate_out" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf "%s --baseline %s --candidate %s %s > %s"
         (Filename.quote bench_gate_exe) (Filename.quote baseline)
         (Filename.quote candidate) flags (Filename.quote out))
  in
  let ic = open_in out in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Sys.remove out;
  (code, content)

let test_bench_gate_flush_budget () =
  let baseline =
    in_temp "gate_base5" [ old_row ~bench:"push_pop" ~workers:1 ~ops:1000. ]
  in
  (* new_row carries flush_per_op 3.0005 *)
  let candidate =
    in_temp "gate_cand5" [ new_row ~bench:"push_pop" ~workers:1 ~ops:1000. ]
  in
  Alcotest.(check int) "within budget passes" 0
    (run_gate ~flags:"--max-flush-per-op push_pop=3.5" baseline candidate);
  let code, out =
    run_gate_capturing ~flags:"--max-flush-per-op push_pop=2.0" baseline
      candidate
  in
  Alcotest.(check int) "over budget fails" 1 code;
  Alcotest.(check bool) "verdict names the offending row" true
    (contains out "push_pop/1w=3.00 flush/op");
  List.iter Sys.remove [ baseline; candidate ]

let test_bench_gate_flush_budget_unverifiable_is_an_error () =
  let baseline =
    in_temp "gate_base6" [ old_row ~bench:"push_pop" ~workers:1 ~ops:1000. ]
  in
  let candidate =
    in_temp "gate_cand6" [ new_row ~bench:"push_pop" ~workers:1 ~ops:1000. ]
  in
  (* a budget naming a bench absent from the candidate must not pass
     vacuously *)
  Alcotest.(check int) "budget matching no row is a parse error" 2
    (run_gate ~flags:"--max-flush-per-op ghost=1.0" baseline candidate);
  (* matching rows without the flush_per_op column cannot certify a
     budget *)
  let bare =
    in_temp "gate_bare6" [ old_row ~bench:"push_pop" ~workers:1 ~ops:1000. ]
  in
  Alcotest.(check int) "missing flush_per_op field is a parse error" 2
    (run_gate ~flags:"--max-flush-per-op push_pop=3.5" baseline bare);
  Alcotest.(check int) "without the flag the same files pass" 0
    (run_gate baseline bare);
  List.iter Sys.remove [ baseline; candidate; bare ]

let test_bench_gate_missing_field_is_an_error () =
  (* row-bounded parsing: a row without its own throughput must be a parse
     error, not silently borrow the next row's value *)
  let baseline = in_temp "gate_base2" [ old_row ~bench:"push_pop" ~workers:1 ~ops:1000. ] in
  let truncated =
    in_temp "gate_trunc"
      [
        "{ \"bench\": \"push_pop\", \"workers\": 1 }";
        old_row ~bench:"push_pop" ~workers:1 ~ops:1000.;
      ]
  in
  Alcotest.(check int) "missing ops_per_sec is a parse error" 2
    (run_gate baseline truncated);
  List.iter Sys.remove [ baseline; truncated ]

(* ------------------------------------------------------------------ *)
(* model_check: [--equivalence] checks the workload [--kind] names. *)

let model_check_exe =
  Filename.concat (Filename.dirname Sys.argv.(0)) "../bin/model_check.exe"

let test_equivalence_honours_kind () =
  let out = Filename.temp_file "equivalence" ".txt" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s --equivalence --kind rstack --workers 1 --preempt 0 --ops 2 \
          > %s"
         (Filename.quote model_check_exe) (Filename.quote out))
  in
  let lines = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) "exit" 0 code;
  let headers =
    List.filter
      (fun l ->
        String.starts_with ~prefix:"[equivalence]" l
        && not (String.starts_with ~prefix:"[equivalence] equivalent" l))
      (String.split_on_char '\n' lines)
  in
  Alcotest.(check (list bool))
    "one workload, rstack" [ true ]
    (List.map (String.starts_with ~prefix:"[equivalence] rstack ") headers)

let () =
  Alcotest.run "tools"
    [
      ( "image inspector",
        [
          Alcotest.test_case "pp_image" `Quick test_pp_image;
          Alcotest.test_case "requires superblock" `Quick
            test_pp_image_requires_superblock;
        ] );
      ( "driver",
        [ Alcotest.test_case "crash budget" `Quick test_driver_crash_budget ] );
      ( "crash controller",
        [ Alcotest.test_case "kill bookkeeping" `Quick test_kill_bookkeeping ]
      );
      ( "device",
        [
          Alcotest.test_case "persist delay" `Quick test_persist_delay;
        ] );
      ( "dump",
        [
          Alcotest.test_case "corrupt pointer" `Quick test_dump_corrupt_pointer;
        ] );
      ( "history ingestion",
        [
          Alcotest.test_case "parses entries" `Quick test_history_io_parses;
          Alcotest.test_case "file:line on every malformed entry" `Quick
            test_history_io_line_numbers;
          Alcotest.test_case "pp/parse round-trip" `Quick
            test_history_io_round_trip;
        ] );
      ( "exec",
        [ Alcotest.test_case "live blocks" `Quick test_exec_live_blocks ] );
      ( "bench gate",
        [
          Alcotest.test_case "tolerates new columns" `Quick
            test_bench_gate_tolerates_new_columns;
          Alcotest.test_case "missing field is an error" `Quick
            test_bench_gate_missing_field_is_an_error;
          Alcotest.test_case "missing row fails" `Quick
            test_bench_gate_missing_row_fails;
          Alcotest.test_case "min scaling floor" `Quick
            test_bench_gate_min_scaling;
          Alcotest.test_case "flush budget" `Quick test_bench_gate_flush_budget;
          Alcotest.test_case "unverifiable flush budget is an error" `Quick
            test_bench_gate_flush_budget_unverifiable_is_an_error;
        ] );
      ( "model check",
        [
          Alcotest.test_case "equivalence honours --kind" `Quick
            test_equivalence_honours_kind;
        ] );
    ]
