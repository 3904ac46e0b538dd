(* End-to-end reproduction of the Section 5.2 running examples (experiment
   rows E1-E3 of DESIGN.md):

   - E1/E2: random CAS workloads (wide and narrow ranges) executed by 4
     workers under random crashes with the CORRECT recoverable CAS are
     always serializable;
   - E3: the same harness with the BUGGY CAS (announcement matrix removed)
     produces non-serializable executions that the verifier reports.

   The buggy variant's vulnerable window (install, overwrite, crash before
   the bookkeeping) is narrow, so E3 uses a high-contention two-value
   workload and several seeds, mirroring the paper's "a lot of random
   executions". *)

module E = Experiment
module S = Verify.Serializability

let is_serializable o =
  match o.E.verdict with
  | S.Serializable _ -> true
  | S.Not_serializable _ -> false

let test_e1_wide_range () =
  for seed = 1 to 5 do
    let o =
      E.run
        {
          E.default_spec with
          n_ops = 48;
          seed;
          range = Verify.Generator.Wide;
          crash_mode = E.Random_ops 0.01;
        }
    in
    Alcotest.(check bool)
      (Printf.sprintf "wide seed %d serializable" seed)
      true (is_serializable o);
    Alcotest.(check int)
      (Printf.sprintf "wide seed %d all ops answered" seed)
      48
      (List.length o.E.history.Verify.History.ops)
  done

let test_e2_narrow_range () =
  for seed = 1 to 5 do
    let o =
      E.run
        {
          E.default_spec with
          n_ops = 48;
          seed;
          range = Verify.Generator.Narrow;
          crash_mode = E.Random_ops 0.01;
        }
    in
    Alcotest.(check bool)
      (Printf.sprintf "narrow seed %d serializable" seed)
      true (is_serializable o)
  done

let test_e1_deterministic_crashes () =
  let o =
    E.run
      {
        E.default_spec with
        n_ops = 32;
        seed = 7;
        crash_mode = E.Every_ops 500;
      }
  in
  Alcotest.(check bool) "crashes occurred" true (o.E.crashes > 0);
  Alcotest.(check bool) "serializable" true (is_serializable o)

let test_no_crash_mode () =
  let o =
    E.run { E.default_spec with n_ops = 32; seed = 9; crash_mode = E.No_crashes }
  in
  Alcotest.(check int) "no crashes" 0 o.E.crashes;
  Alcotest.(check bool) "serializable" true (is_serializable o)

let test_unbounded_stack_kinds () =
  List.iter
    (fun stack_kind ->
      let o =
        E.run
          {
            E.default_spec with
            n_ops = 24;
            seed = 11;
            crash_mode = E.Random_ops 0.005;
            stack_kind;
          }
      in
      Alcotest.(check bool) "serializable" true (is_serializable o))
    [ Runtime.System.Resizable_stack 128; Runtime.System.Linked_stack 256 ]

let test_e3_buggy_detected () =
  (* Exhaustive and deterministic, replacing the former 12-seed statistical
     loop: the systematic explorer (lib/mc) enumerates every interleaving
     up to one preemption and every single-crash placement of a 2-worker
     buggy-CAS workload, and must find the lost-success non-serializable
     execution — same result, same explored-state counts, every run. *)
  let workload =
    Result.get_ok
      (Fuzz.Workload.of_lines
         [ "kind rcas-buggy"; "workers 2"; "init 0"; "op cas 0 1"; "op cas 1 2" ])
  in
  let config =
    { Mc.Explore.default_config with Mc.Explore.preempt_bound = 1 }
  in
  match Mc.Explore.explore ~config workload with
  | Mc.Explore.Violation (v, _) ->
      Alcotest.(check bool)
        "flagged as non-serializable" true
        (let needle = "NOT serializable" and msg = v.Mc.Explore.reason in
         let n = String.length needle and h = String.length msg in
         let rec go i =
           i + n <= h && (String.sub msg i n = needle || go (i + 1))
         in
         go 0)
  | Mc.Explore.Certified stats ->
      Alcotest.failf "buggy CAS certified clean after %a" Mc.Explore.pp_stats
        stats
  | Mc.Explore.Budget_exhausted _ -> Alcotest.fail "search budget exhausted"

let test_e3_buggy_smoke_seeded () =
  (* One seeded statistical run survives as a smoke of the random-schedule
     path (E.run with the buggy variant executes and records a full
     history); no detection requirement — that is the explorer's job. *)
  let o =
    E.run
      {
        E.default_spec with
        n_ops = 100;
        seed = 3;
        workers = 8;
        variant = Recoverable.Rcas.Buggy;
        range = Verify.Generator.Custom (0, 1);
        crash_mode = E.Random_ops 0.02;
      }
  in
  Alcotest.(check int)
    "all ops answered" 100
    (List.length o.E.history.Verify.History.ops)

let test_correct_survives_high_contention () =
  (* the exact E3 setup but with the correct CAS: never flagged *)
  for seed = 1 to 4 do
    let o =
      E.run
        {
          E.default_spec with
          n_ops = 300;
          seed;
          workers = 8;
          variant = Recoverable.Rcas.Correct;
          range = Verify.Generator.Custom (0, 1);
          crash_mode = E.Random_ops 0.02;
        }
    in
    Alcotest.(check bool)
      (Printf.sprintf "correct seed %d" seed)
      true (is_serializable o)
  done


let test_timed_linearizable () =
  (* run small concurrent workloads and verify the recorded executions for
     linearizability and sequential consistency — the paper's future-work
     direction 2 wired to the real runtime *)
  for seed = 1 to 6 do
    let ops, init =
      E.run_timed
        {
          E.default_spec with
          n_ops = 12;
          seed;
          workers = 3;
          range = Verify.Generator.Custom (0, 2);
        }
    in
    Alcotest.(check int) "all ops recorded" 12 (List.length ops);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d linearizable" seed)
      true
      (Verify.Linearizability.is_linearizable ~init ops);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d sequentially consistent" seed)
      true
      (Verify.Linearizability.is_sequentially_consistent ~init ops)
  done

(* An experiment is a function of its spec: the workers run on the
   cooperative scheduler under a policy seeded from [spec.seed], so two
   runs agree on every crash, era and answer, and so do two timed runs. *)
let test_run_is_function_of_spec () =
  let spec =
    { E.default_spec with seed = 1; workers = 4; crash_mode = E.Every_ops 400 }
  in
  let a = E.run spec and b = E.run spec in
  Alcotest.(check bool) "crashes occurred" true (a.E.crashes > 0);
  Alcotest.(check int) "same crashes" a.E.crashes b.E.crashes;
  Alcotest.(check int) "same eras" a.E.eras b.E.eras;
  Alcotest.(check bool) "same history" true (a.E.history = b.E.history);
  let timed = { spec with n_ops = 12; workers = 3 } in
  Alcotest.(check bool)
    "same timed history" true
    (E.run_timed timed = E.run_timed timed)

(* Pins of the Section 5.2 rows as EXPERIMENTS.md reports them: the crash
   total and the verdict count of each row, and one seeded run on each
   unbounded stack kind.  An experiment is a function of its spec, so these
   totals move only when the execution does. *)
let row ~seeds spec =
  List.fold_left
    (fun (crashes, serializable) seed ->
      let o = E.run { spec with E.seed } in
      ( crashes + o.E.crashes,
        if is_serializable o then serializable + 1 else serializable ))
    (0, 0)
    (List.init seeds (fun i -> i + 1))

let e3_spec variant =
  {
    E.default_spec with
    n_ops = 300;
    workers = 8;
    variant;
    range = Verify.Generator.Custom (0, 1);
    crash_mode = E.Random_ops 0.02;
  }

let test_row_pins () =
  let check name (crashes, serializable) got =
    Alcotest.(check (pair int int)) name (crashes, serializable) got
  in
  check "E1: 143 crashes, 5/5 serializable" (143, 5)
    (row ~seeds:5
       {
         E.default_spec with
         n_ops = 64;
         range = Verify.Generator.Wide;
         crash_mode = E.Random_ops 0.01;
       });
  check "E3: 2141 crashes, 8/8 flagged" (2141, 0)
    (row ~seeds:8 (e3_spec Recoverable.Rcas.Buggy));
  check "E3-control: 2209 crashes, 8/8 serializable" (2209, 8)
    (row ~seeds:8 (e3_spec Recoverable.Rcas.Correct))

let test_stack_kind_pins () =
  List.iter
    (fun (stack_kind, crashes, eras, successes, final) ->
      let o =
        E.run
          {
            E.default_spec with
            seed = 1;
            crash_mode = E.Random_ops 0.005;
            stack_kind;
          }
      in
      Alcotest.(check (list int))
        "crashes, eras, successes, final"
        [ crashes; eras; successes; final ]
        [
          o.E.crashes;
          o.E.eras;
          List.length (Verify.History.successes o.E.history);
          o.E.history.Verify.History.final;
        ];
      Alcotest.(check bool) "serializable" true (is_serializable o))
    [
      (Runtime.System.Resizable_stack 256, 35, 51, 9, 9);
      (Runtime.System.Linked_stack 256, 21, 32, 9, 9);
    ]

let test_outcome_reporting () =
  let o =
    E.run { E.default_spec with n_ops = 16; seed = 2; crash_mode = E.No_crashes }
  in
  let text = Format.asprintf "%a" E.pp_outcome o in
  let contains haystack needle =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary mentions verdict" true
    (contains text "serializable")

let () =
  Alcotest.run "experiment"
    [
      ( "section 5.2",
        [
          Alcotest.test_case "E1: wide range, correct CAS" `Slow
            test_e1_wide_range;
          Alcotest.test_case "E2: narrow range, correct CAS" `Slow
            test_e2_narrow_range;
          Alcotest.test_case "deterministic crash schedule" `Quick
            test_e1_deterministic_crashes;
          Alcotest.test_case "no-crash mode" `Quick test_no_crash_mode;
          Alcotest.test_case "unbounded stacks" `Slow test_unbounded_stack_kinds;
          Alcotest.test_case "E3: buggy CAS detected (exhaustive)" `Quick
            test_e3_buggy_detected;
          Alcotest.test_case "E3: seeded smoke" `Slow
            test_e3_buggy_smoke_seeded;
          Alcotest.test_case "E3 control: correct CAS clean" `Slow
            test_correct_survives_high_contention;
          Alcotest.test_case "timed executions linearizable" `Slow
            test_timed_linearizable;
          Alcotest.test_case "outcome reporting" `Quick test_outcome_reporting;
          Alcotest.test_case "a run is a function of its spec" `Quick
            test_run_is_function_of_spec;
          Alcotest.test_case "E1/E3 row pins" `Slow test_row_pins;
          Alcotest.test_case "stack kind pins" `Quick test_stack_kind_pins;
        ] );
    ]
