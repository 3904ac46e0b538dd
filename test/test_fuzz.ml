(* Tier-1 smoke for the crash-schedule fuzzer: fixed seeds only, so every
   run exercises the same cases.  Covers the serialisation round-trips,
   determinism of the campaign trace, the clean verdict on the real
   structures, and the full find -> shrink -> reproduce loop on the
   planted-bug workload. *)

module Crash = Nvram.Crash
module Pmem = Nvram.Pmem
module Workload = Fuzz.Workload
module Schedule = Fuzz.Schedule
module Harness = Fuzz.Harness
module Shrink = Fuzz.Shrink
module Reproducer = Fuzz.Reproducer
module Campaign = Fuzz.Campaign

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* A crash point inside the faulty counter's unprotected recovery window,
   found by sweeping at-op values over a 5-increment trace; pinned here as
   the known-bad schedule of the planted-bug tests. *)
let known_bad_workload =
  {
    Workload.kind = Workload.Faulty;
    workers = 1;
    init = 0;
    stack = Workload.default_stack;
    ops = List.init 5 (fun _ -> Workload.Bump);
  }

let known_bad_schedule =
  { Schedule.none with Schedule.eras = [ Crash.At_op 40 ] }

let fail_message = function
  | { Harness.verdict = Harness.Fail msg; _ } -> msg
  | { Harness.verdict = Harness.Fatal msg; _ } ->
      Alcotest.failf "expected a Fail verdict, got Fatal: %s" msg
  | { Harness.verdict = Harness.Pass; _ } ->
      Alcotest.fail "expected the case to fail"

let test_workload_round_trip () =
  List.iter
    (fun kind ->
      let rng = Random.State.make [| 11; 22 |] in
      let w = Workload.generate kind ~rng ~n_ops:17 ~workers:3 in
      match Workload.of_lines (Workload.to_lines w) with
      | Ok w' -> Alcotest.(check bool) "round trip" true (w = w')
      | Error msg -> Alcotest.fail msg)
    (Workload.Faulty :: Workload.correct_kinds)

let test_schedule_round_trip () =
  for seed = 0 to 9 do
    let rng = Random.State.make [| 5; seed |] in
    let s = Schedule.generate ~faults:(seed mod 2 = 1) ~rng ~max_eras:4 () in
    match Schedule.of_lines (Schedule.to_lines s) with
    | Ok s' -> Alcotest.(check bool) "round trip" true (s = s')
    | Error msg -> Alcotest.fail msg
  done

let test_schedule_rejects_out_of_order () =
  match Schedule.of_lines [ "era 2 at-op 5" ] with
  | Ok _ -> Alcotest.fail "expected out-of-order era to be rejected"
  | Error msg -> Alcotest.(check bool) "message" true (contains msg "era 2")

(* Property: of_lines ∘ to_lines is the identity on ~1k schedules covering
   the whole format — era/kill plans from the generator, plus interleaving
   prefixes (long enough to split across several [interleave] lines) and
   preemption bounds drawn here, since the random campaign never emits
   them. *)
let test_schedule_round_trip_property () =
  for seed = 0 to 999 do
    let rng = Random.State.make [| 77; seed |] in
    let base = Schedule.generate ~faults:(seed mod 3 = 0) ~rng ~max_eras:4 () in
    let interleave =
      let n = Random.State.int rng 40 in
      List.init n (fun _ -> Random.State.int rng 4)
    in
    let preempt =
      if Random.State.bool rng then Some (Random.State.int rng 4) else None
    in
    (* The model checker's provenance metadata rides the same format. *)
    let por = Random.State.bool rng in
    let reversals =
      List.init (Random.State.int rng 6) (fun _ -> Random.State.int rng 100)
    in
    let s = { base with Schedule.interleave; preempt; por; reversals } in
    match Schedule.of_lines (Schedule.to_lines s) with
    | Ok s' ->
        if s <> s' then
          Alcotest.failf "seed %d: schedule did not round-trip: %a vs %a"
            seed Schedule.pp s Schedule.pp s'
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done

(* Malformed entries are rejected with the 1-based line number of the
   offending line, whatever came before it. *)
let test_schedule_malformed_line_numbers () =
  let expect_error lines fragment =
    match Schedule.of_lines lines with
    | Ok _ ->
        Alcotest.failf "expected %S to be rejected" (String.concat "|" lines)
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S mentions %S" msg fragment)
          true (contains msg fragment)
  in
  expect_error [ "era 1 at-op 5"; "bogus entry" ] "line 2";
  expect_error [ "era 1 at-op 5"; "bogus entry" ] "unknown schedule entry";
  expect_error [ "era 1 at-op 0" ] "line 1";
  expect_error
    [ "era 1 at-op 5"; "kill at-op 3"; "interleave 0 x 1" ]
    "line 3";
  expect_error [ "interleave 0 -2" ] "negative worker id";
  expect_error [ "era 1 at-op 5"; "preempt two" ] "line 2";
  expect_error [ "preempt 1 2" ] "malformed preempt";
  expect_error [ "preempt -1" ] "must be >= 0";
  expect_error [ "era 1 at-op 5"; "tear bogus" ] "line 2";
  expect_error [ "bitflip at-op" ] "line 1";
  expect_error [ "fault-seed x" ] "not an integer";
  expect_error [ "por maybe" ] "malformed por";
  expect_error [ "era 1 at-op 5"; "reversal -1" ] "negative decision index";
  expect_error [ "reversal 3 x" ] "not a decision index"

let test_correct_kinds_pass () =
  let config =
    { Campaign.default with Campaign.seed = 42; runs = 12; max_ops = 24 }
  in
  let report = Campaign.run config in
  Alcotest.(check int) "cases" 12 report.Campaign.cases;
  Alcotest.(check int) "failures" 0 (List.length report.Campaign.failures)

let test_campaign_trace_deterministic () =
  let config =
    { Campaign.default with Campaign.seed = 7; runs = 8; max_ops = 16 }
  in
  let trace () =
    let lines = ref [] in
    ignore (Campaign.run ~log:(fun l -> lines := l :: !lines) config);
    List.rev !lines
  in
  let first = trace () in
  Alcotest.(check (list string)) "same trace" first (trace ());
  Alcotest.(check int) "one line per case" 8 (List.length first)

(* The no-silent-corruption campaign: every workload kind under schedules
   that tear the crash-interrupted line and flip bits in checksummed
   metadata between eras.  Injected damage must surface as a repair, a
   quarantine or a loud Fatal refusal — never as a wrong answer. *)
let test_fault_campaign_no_silent_corruption () =
  let config =
    {
      Campaign.default with
      Campaign.seed = 1913;
      runs = 24;
      max_ops = 16;
      faults = true;
    }
  in
  let report = Campaign.run config in
  Alcotest.(check int) "cases" 24 report.Campaign.cases;
  (match report.Campaign.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "silent corruption: case %d: %s" f.Campaign.case
        (match f.Campaign.outcome.Harness.verdict with
        | Harness.Fail msg | Harness.Fatal msg -> msg
        | Harness.Pass -> "pass?"));
  (* The campaign must actually have injected something, or the oracle ran
     on air: at least one case carries fault plans by construction. *)
  let armed = ref 0 in
  for i = 0 to config.Campaign.runs - 1 do
    let _, schedule = Campaign.case_inputs config i in
    if Schedule.has_faults schedule then incr armed
  done;
  Alcotest.(check bool) "faulted schedules drawn" true (!armed > 0)

(* Sabotage self-check: the same fault campaign with checksum verification
   disabled must produce findings — otherwise the checksums never had any
   detection power and the green fault campaign above proves nothing. *)
let test_sabotage_is_caught () =
  let config =
    {
      Campaign.default with
      Campaign.seed = 1913;
      runs = 24;
      max_ops = 16;
      shrink_attempts = 10;
      faults = true;
      sabotage = true;
    }
  in
  let report = Campaign.run config in
  Alcotest.(check bool)
    "sabotaged campaign produces findings" true
    (report.Campaign.failures <> [])

let test_planted_bug_fails () =
  let msg = fail_message (Harness.run known_bad_workload known_bad_schedule) in
  Alcotest.(check bool) "counter message" true (contains msg "faulty counter")

let test_planted_bug_deterministic () =
  let run () = fail_message (Harness.run known_bad_workload known_bad_schedule) in
  Alcotest.(check string) "same failure" (run ()) (run ())

(* Local minimality, the guarantee greedy shrinking actually gives: the
   result is strictly smaller, still fails, and the failure replays.  (The
   global minimum — one bump, one crash — sits in a different failure
   window than the seed case, unreachable through failing-only steps.) *)
let test_shrink_minimises () =
  let outcome = Harness.run known_bad_workload known_bad_schedule in
  let shrunk = Shrink.shrink known_bad_workload known_bad_schedule outcome in
  let msg =
    match shrunk.Shrink.outcome.Harness.verdict with
    | Harness.Fail msg -> msg
    | Harness.Fatal msg -> Alcotest.failf "shrunk case died: %s" msg
    | Harness.Pass -> Alcotest.fail "shrunk case no longer fails"
  in
  Alcotest.(check bool)
    "fewer ops" true
    (List.length shrunk.Shrink.workload.ops
    < List.length known_bad_workload.ops);
  let replayed =
    fail_message (Harness.run shrunk.Shrink.workload shrunk.Shrink.schedule)
  in
  Alcotest.(check string) "shrunk failure replays" msg replayed

(* Regression pin for the shrinker's size measure: a probabilistic era
   plan must outweigh ANY concrete [At_op] — with a merely "large" weight,
   concretising onto a late crash point would register as a size increase
   and the greedy loop would refuse the one step that makes a schedule
   replayable. *)
let test_measure_random_outweighs_any_at_op () =
  let w = known_bad_workload in
  let with_era plan = { Schedule.none with Schedule.eras = [ plan ] } in
  let random =
    Shrink.measure w
      (with_era (Crash.Random { seed = 1; probability = 0.5 }))
  in
  Alcotest.(check bool)
    "Random > At_op 999999" true
    (random > Shrink.measure w (with_era (Crash.At_op 999_999)));
  (* The interleaving prefix and its por/reversal metadata are part of the
     size, so dropping a stale prefix registers as a shrink. *)
  let bare = Shrink.measure w known_bad_schedule in
  let decorated =
    Shrink.measure w
      {
        known_bad_schedule with
        Schedule.interleave = [ 0; 0 ];
        preempt = Some 1;
        por = true;
        reversals = [ 2 ];
      }
  in
  Alcotest.(check bool) "metadata weighs" true (decorated > bare)

(* Concretisation end-to-end: run a probabilistic plan, then pin that
   [concretize] rewrites it to the crash point the run actually observed
   and that the rewrite is a strict size decrease. *)
let test_concretize_pins_observed_crash () =
  let schedule =
    {
      Schedule.none with
      Schedule.eras = [ Crash.Random { seed = 3; probability = 0.2 } ];
    }
  in
  let outcome = Harness.run known_bad_workload schedule in
  match Shrink.concretize schedule outcome with
  | None -> Alcotest.fail "a probabilistic plan must concretise"
  | Some concrete ->
      Alcotest.(check bool)
        "strictly smaller" true
        (Shrink.measure known_bad_workload concrete
        < Shrink.measure known_bad_workload schedule);
      (match List.assoc_opt 1 outcome.Harness.crash_points with
      | Some at_op ->
          Alcotest.(check bool)
            "era 1 pinned to the observed point" true
            (concrete.Schedule.eras = [ Crash.At_op (max 1 at_op) ])
      | None ->
          Alcotest.(check bool)
            "unfired plan dropped" true
            (concrete.Schedule.eras = []));
      Alcotest.(check bool)
        "already-concrete schedules do not re-concretise" true
        (Shrink.concretize concrete outcome = None)

(* A failure that does not depend on its interleaving prefix must shrink
   to a schedule without one — the regression: workload-mutating shrink
   steps used to carry the recorded prefix along stale, describing
   decisions of an execution that no longer exists. *)
let test_shrink_drops_stale_interleave () =
  let decorated =
    {
      known_bad_schedule with
      Schedule.interleave = [ 0; 0; 0 ];
      preempt = Some 1;
      por = true;
      reversals = [ 2 ];
    }
  in
  let outcome = Harness.run known_bad_workload decorated in
  let msg = fail_message outcome in
  Alcotest.(check bool) "decorated case fails" true
    (contains msg "faulty counter");
  let shrunk = Shrink.shrink known_bad_workload decorated outcome in
  Alcotest.(check (list int))
    "interleave dropped" []
    shrunk.Shrink.schedule.Schedule.interleave;
  Alcotest.(check bool) "por metadata dropped" false
    shrunk.Shrink.schedule.Schedule.por;
  Alcotest.(check (list int))
    "reversals dropped" []
    shrunk.Shrink.schedule.Schedule.reversals;
  match shrunk.Shrink.outcome.Harness.verdict with
  | Harness.Fail _ -> ()
  | _ -> Alcotest.fail "shrunk case must still fail"

let test_reproducer_round_trip_and_replay () =
  let outcome = Harness.run known_bad_workload known_bad_schedule in
  let shrunk = Shrink.shrink known_bad_workload known_bad_schedule outcome in
  let repro =
    {
      Reproducer.seed = Some 42;
      case = Some 0;
      workload = shrunk.Shrink.workload;
      schedule = shrunk.Shrink.schedule;
      expected =
        (match shrunk.Shrink.outcome.Harness.verdict with
        | Harness.Fail msg | Harness.Fatal msg -> Some msg
        | Harness.Pass -> None);
      trace = Campaign.trace_of_shrunk shrunk;
    }
  in
  Alcotest.(check bool) "trace tail attached" true (repro.Reproducer.trace <> []);
  match Reproducer.of_lines (Reproducer.to_lines repro) with
  | Error msg -> Alcotest.fail msg
  | Ok repro' ->
      (* The trace rides along as comments, so parsing drops it and the
         replayable payload round-trips unchanged. *)
      Alcotest.(check bool) "round trip" true
        ({ repro with Reproducer.trace = [] } = repro');
      let msg = fail_message (Reproducer.replay repro') in
      Alcotest.(check (option string))
        "replays to the captured failure" repro.Reproducer.expected (Some msg)

(* Differential check, fuzz-side: the same seeded workload under the same
   deterministic schedule must be indistinguishable to a client whether
   the device flushes eagerly or coalesces write-backs — both runs Pass
   and the end-state fingerprints match byte for byte.  Single-worker
   cases with [At_op] crash plans keep every run deterministic; Rcounter
   is the one kind whose device actually defers write-backs (the others
   run on auto-flush devices, where coalescing is inert), so it is the
   row where this comparison has teeth. *)
let test_differential_eager_vs_coalesced () =
  let schedules =
    [
      ("no crash", Schedule.none);
      ( "crash at op 12",
        { Schedule.none with Schedule.eras = [ Crash.At_op 12 ] } );
    ]
  in
  List.iter
    (fun kind ->
      let rng = Random.State.make [| 23; 5 |] in
      let w = Workload.generate kind ~rng ~n_ops:10 ~workers:1 in
      List.iter
        (fun (label, schedule) ->
          let case =
            Printf.sprintf "%s, %s" (Workload.kind_to_string kind) label
          in
          let eager = Harness.run ~flush_mode:Pmem.Eager w schedule in
          let coalesced = Harness.run ~flush_mode:Pmem.Coalesced w schedule in
          (match (eager.Harness.verdict, coalesced.Harness.verdict) with
          | Harness.Pass, Harness.Pass -> ()
          | (Harness.Fail msg | Harness.Fatal msg), _ ->
              Alcotest.failf "%s: eager run failed: %s" case msg
          | _, (Harness.Fail msg | Harness.Fatal msg) ->
              Alcotest.failf "%s: coalesced run failed: %s" case msg);
          Alcotest.(check bool)
            (case ^ ": fingerprint is non-empty")
            true
            (String.length eager.Harness.fingerprint > 0);
          Alcotest.(check string)
            (case ^ ": identical fingerprints")
            eager.Harness.fingerprint coalesced.Harness.fingerprint)
        schedules)
    Workload.correct_kinds

let test_rcas_run_produces_history () =
  let rng = Random.State.make [| 13; 1 |] in
  let w = Workload.generate Workload.Rcas ~rng ~n_ops:8 ~workers:2 in
  let outcome = Harness.run w (Schedule.none) in
  (match outcome.Harness.verdict with
  | Harness.Pass -> ()
  | Harness.Fail msg | Harness.Fatal msg -> Alcotest.fail msg);
  match outcome.Harness.history with
  | Some h ->
      Alcotest.(check int) "ops recorded" 8 (List.length h.Verify.History.ops)
  | None -> Alcotest.fail "rcas run returned no history"

(* Individual kills inside the heap: one worker pushes (enqueues) and pops
   (dequeues) alone on an auto-flush device while a one-shot kill lands at
   its 104th persistence op, inside an allocation's tag writes.  The worker
   recovers alone and keeps the same heap handle, so a block the cut-short
   allocation took out of the arena's free index must come back without a
   whole-system recovery: with one arena that block is all the free space,
   and losing it refuses a 32-byte allocation with ~2 MB free. *)
let kill_in_alloc_reproducer kind ~push ~pop =
  let op_lines =
    List.map
      (function
        | `Push v -> Printf.sprintf "op %s %d" push v
        | `Pop -> "op " ^ pop)
      [
        `Push 100; `Push 101; `Push 103; `Push 104; `Pop; `Pop; `Push 107;
        `Pop; `Push 109; `Pop; `Push 111;
      ]
  in
  ([ "kind " ^ kind; "workers 1"; "init 0" ] @ op_lines @ [ "kill at-op 104" ])

let test_kill_in_alloc kind ~push ~pop () =
  match Reproducer.of_lines (kill_in_alloc_reproducer kind ~push ~pop) with
  | Error msg -> Alcotest.fail msg
  | Ok repro -> (
      match (Reproducer.replay repro).Harness.verdict with
      | Harness.Pass -> ()
      | Harness.Fail msg | Harness.Fatal msg -> Alcotest.fail msg)

(* A tear of the status flush that completes op 1 of a two-op rcounter
   run: the new status word reaches the image, and the answer bytes next
   to it in the same line are shredded.  The completion must read as
   damage (a loud fatal under the armed fault plan), never as op 1 done
   with a garbage answer. *)
let torn_completion_reproducer =
  [
    "kind rcounter"; "workers 1"; "init 0"; "op bump"; "op bump";
    "era 1 at-op 47"; "tear random 767686 0.695430"; "fault-seed 813356";
  ]

let test_torn_completion_is_loud () =
  match Reproducer.of_lines torn_completion_reproducer with
  | Error msg -> Alcotest.fail msg
  | Ok repro -> (
      match (Reproducer.replay repro).Harness.verdict with
      | Harness.Pass | Harness.Fatal _ -> ()
      | Harness.Fail msg -> Alcotest.failf "silent corruption: %s" msg)

(* A multi-worker case is a pure function of its inputs: three workers
   interleaved by a seeded policy, two era crashes and a kill, run twenty
   times, end the same way every time — and its recorded choices replay it
   under the default policy. *)
let three_workers_workload =
  {
    Workload.kind = Workload.Rstack;
    workers = 3;
    init = 0;
    stack = Workload.default_stack;
    ops =
      List.init 12 (fun i ->
          if i mod 3 = 2 then Workload.Pop else Workload.Push (100 + i));
  }

let three_workers_schedule =
  {
    Schedule.none with
    Schedule.eras =
      [ Crash.At_op 70; Crash.Random { seed = 5; probability = 0.02 } ];
    kill = Some (Crash.At_op 110);
  }

let test_multi_worker_case_replays () =
  let decide () = Runtime.Coop.random_decision (Random.State.make [| 9 |]) in
  let run () =
    Harness.run ~decide three_workers_workload three_workers_schedule
  in
  let first = run () in
  let same label (o : Harness.outcome) =
    Alcotest.(check bool) (label ^ ": verdict") true
      (o.Harness.verdict = first.Harness.verdict);
    Alcotest.(check string) (label ^ ": fingerprint") first.Harness.fingerprint
      o.Harness.fingerprint;
    Alcotest.(check (list (pair int int)))
      (label ^ ": crash points") first.Harness.crash_points
      o.Harness.crash_points
  in
  (match first.Harness.verdict with
  | Harness.Pass -> ()
  | Harness.Fail msg | Harness.Fatal msg -> Alcotest.fail msg);
  Alcotest.(check bool) "an era crash fired" true
    (first.Harness.crash_points <> []);
  Alcotest.(check bool) "the policy switched workers" true
    (List.length (List.sort_uniq compare first.Harness.interleave) > 1);
  (* A kill on the orchestrator re-runs the case without it; this one lands
     on a worker, so the run differs from the kill-free one. *)
  let unkilled =
    Harness.run ~decide three_workers_workload
      { three_workers_schedule with Schedule.kill = None }
  in
  Alcotest.(check bool) "the kill landed on a worker" true
    (unkilled.Harness.interleave <> first.Harness.interleave);
  for i = 2 to 20 do
    same (Printf.sprintf "run %d" i) (run ())
  done;
  same "replay"
    (Reproducer.replay
       {
         Reproducer.seed = None;
         case = None;
         workload = three_workers_workload;
         schedule =
           {
             three_workers_schedule with
             Schedule.interleave = first.Harness.interleave;
           };
         expected = None;
         trace = [];
       })

(* The planted bug with several workers, interleaved by a seeded policy:
   the failing case replays exactly from its recorded choices, and shrinks
   to a case that still fails and replays to the same message. *)
let test_planted_bug_multi_worker () =
  let workload = { known_bad_workload with Workload.workers = 3 } in
  let decide () = Runtime.Coop.random_decision (Random.State.make [| 4 |]) in
  let outcome = Harness.run ~decide workload known_bad_schedule in
  let msg = fail_message outcome in
  Alcotest.(check bool) "counter message" true (contains msg "faulty counter");
  let schedule =
    { known_bad_schedule with Schedule.interleave = outcome.Harness.interleave }
  in
  Alcotest.(check string) "the recorded choices replay it" msg
    (fail_message (Harness.run workload schedule));
  let shrunk = Shrink.shrink workload schedule outcome in
  let shrunk_msg = fail_message shrunk.Shrink.outcome in
  Alcotest.(check bool) "shrinking made it smaller" true
    (Shrink.measure shrunk.Shrink.workload shrunk.Shrink.schedule
    < Shrink.measure workload schedule);
  Alcotest.(check string) "the shrunk case replays" shrunk_msg
    (fail_message (Harness.run shrunk.Shrink.workload shrunk.Shrink.schedule))

(* A failure that needs its interleaving: the E3 configuration of Section
   5.2 (buggy CAS, eight workers, 300 CAS ops on the values {0,1}, one
   seeded 2% crash plan per era), interleaved by a seeded policy.  Its
   recorded choices replay the failure and the default policy alone does
   not, so only a shrinker whose candidates keep the prefix can make it
   smaller. *)
let e3_case () =
  let init, pairs =
    Verify.Generator.workload ~seed:1 ~n:300
      ~range:(Verify.Generator.Custom (0, 1))
  in
  let workload =
    Result.get_ok
      (Workload.of_lines
         ([ "kind rcas-buggy"; "workers 8"; Printf.sprintf "init %d" init ]
         @ List.map (fun (e, d) -> Printf.sprintf "op cas %d %d" e d) pairs))
  in
  let schedule =
    {
      Schedule.none with
      Schedule.eras =
        List.init 1000 (fun i ->
            Crash.Random { seed = 7919 + i + 1; probability = 0.02 });
    }
  in
  let decide () = Runtime.Coop.random_decision (Random.State.make [| 1 |]) in
  let outcome = Harness.run ~decide workload schedule in
  (workload, { schedule with Schedule.interleave = outcome.Harness.interleave })

let test_interleaved_failure_shrinks () =
  let workload, schedule = e3_case () in
  let outcome = Harness.run workload schedule in
  let msg = fail_message outcome in
  Alcotest.(check bool) "flagged" true (contains msg "NOT serializable");
  (match
     (Harness.run workload { schedule with Schedule.interleave = [] })
       .Harness.verdict
   with
  | Harness.Pass -> ()
  | _ -> Alcotest.fail "the failure must need its interleaving");
  let shrunk = Shrink.shrink workload schedule outcome in
  Alcotest.(check bool)
    "fewer ops" true
    (List.length shrunk.Shrink.workload.Workload.ops
    < List.length workload.Workload.ops);
  let repro =
    {
      Reproducer.seed = None;
      case = None;
      workload = shrunk.Shrink.workload;
      schedule = shrunk.Shrink.schedule;
      expected = None;
      trace = [];
    }
  in
  match Reproducer.of_lines (Reproducer.to_lines repro) with
  | Error msg -> Alcotest.fail msg
  | Ok repro ->
      Alcotest.(check string)
        "the shrunk reproducer fails on replay"
        (fail_message shrunk.Shrink.outcome)
        (fail_message (Reproducer.replay repro))

(* The reproducer's [stack] line: every kind round-trips, a file without
   one (every reproducer written before the line existed) runs on the
   bounded stack, and a malformed one is an [Error] quoting the line. *)
let test_stack_line () =
  List.iter
    (fun stack ->
      let repro =
        {
          Reproducer.seed = None;
          case = None;
          workload = { known_bad_workload with Workload.stack };
          schedule = known_bad_schedule;
          expected = None;
          trace = [];
        }
      in
      match Reproducer.of_lines (Reproducer.to_lines repro) with
      | Ok repro' ->
          Alcotest.(check bool)
            (Workload.stack_to_string stack ^ " round trip")
            true (repro = repro')
      | Error msg -> Alcotest.fail msg)
    (Runtime.System.Resizable_stack 128 :: Workload.stacks);
  (match Reproducer.of_lines torn_completion_reproducer with
  | Ok repro ->
      Alcotest.(check bool)
        "no stack line: bounded 4096" true
        (repro.Reproducer.workload.Workload.stack
        = Runtime.System.Bounded_stack 4096)
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun line ->
      match
        Reproducer.of_lines
          [ "kind rstack"; "workers 1"; "init 0"; line; "op pop" ]
      with
      | Ok _ -> Alcotest.failf "%S accepted" line
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names the line" msg)
            true (contains msg line))
    [ "stack linked"; "stack ring 64"; "stack bounded x" ]

(* A campaign runs its cases on all three stacks, each drawn after the
   case's workload and schedule. *)
let test_campaign_draws_every_stack () =
  let stacks =
    List.init 30 (fun i ->
        (fst (Campaign.case_inputs Campaign.default i)).Workload.stack)
  in
  Alcotest.(check int)
    "kinds drawn" 3
    (List.length (List.sort_uniq compare stacks))

(* The E3 experiment is the fuzz case above: [Experiment.run] hands back
   its workload and its schedule with the run's choices, and that
   reproducer replays the flagged run. *)
let test_experiment_is_a_fuzz_case () =
  let o =
    Experiment.run
      {
        Experiment.default_spec with
        n_ops = 300;
        seed = 1;
        workers = 8;
        variant = Recoverable.Rcas.Buggy;
        range = Verify.Generator.Custom (0, 1);
        crash_mode = Experiment.Random_ops 0.02;
      }
  in
  let workload, schedule = e3_case () in
  let repro = o.Experiment.reproducer in
  Alcotest.(check bool) "workload" true (repro.Reproducer.workload = workload);
  Alcotest.(check bool) "schedule" true (repro.Reproducer.schedule = schedule);
  Alcotest.(check bool)
    "replays the flagged run" true
    (contains (fail_message (Reproducer.replay repro)) "NOT serializable")

let () =
  Alcotest.run "fuzz"
    [
      ( "serialisation",
        [
          Alcotest.test_case "workload round trip" `Quick
            test_workload_round_trip;
          Alcotest.test_case "schedule round trip" `Quick
            test_schedule_round_trip;
          Alcotest.test_case "schedule era ordering" `Quick
            test_schedule_rejects_out_of_order;
          Alcotest.test_case "schedule round trip x1000" `Quick
            test_schedule_round_trip_property;
          Alcotest.test_case "schedule malformed line numbers" `Quick
            test_schedule_malformed_line_numbers;
          Alcotest.test_case "stack line" `Quick test_stack_line;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "correct kinds pass" `Quick
            test_correct_kinds_pass;
          Alcotest.test_case "trace deterministic" `Quick
            test_campaign_trace_deterministic;
          Alcotest.test_case "rcas history" `Quick
            test_rcas_run_produces_history;
          Alcotest.test_case "eager vs coalesced differential" `Quick
            test_differential_eager_vs_coalesced;
          Alcotest.test_case "3-worker case replays 20 times" `Quick
            test_multi_worker_case_replays;
          Alcotest.test_case "draws every stack kind" `Quick
            test_campaign_draws_every_stack;
          Alcotest.test_case "the E3 experiment is a fuzz case" `Quick
            test_experiment_is_a_fuzz_case;
        ] );
      ( "media faults",
        [
          Alcotest.test_case "no silent corruption" `Quick
            test_fault_campaign_no_silent_corruption;
          Alcotest.test_case "sabotage caught" `Quick test_sabotage_is_caught;
          Alcotest.test_case "torn task completion is loud" `Quick
            test_torn_completion_is_loud;
        ] );
      ( "planted bug",
        [
          Alcotest.test_case "known-bad schedule fails" `Quick
            test_planted_bug_fails;
          Alcotest.test_case "failure deterministic" `Quick
            test_planted_bug_deterministic;
          Alcotest.test_case "shrinks to minimal" `Quick test_shrink_minimises;
          Alcotest.test_case "measure: Random outweighs any At_op" `Quick
            test_measure_random_outweighs_any_at_op;
          Alcotest.test_case "concretize pins the observed crash" `Quick
            test_concretize_pins_observed_crash;
          Alcotest.test_case "stale interleave dropped by shrinking" `Quick
            test_shrink_drops_stale_interleave;
          Alcotest.test_case "reproducer replays" `Quick
            test_reproducer_round_trip_and_replay;
          Alcotest.test_case "multi-worker failure replays and shrinks" `Quick
            test_planted_bug_multi_worker;
          Alcotest.test_case "interleaved failure shrinks" `Quick
            test_interleaved_failure_shrinks;
        ] );
      ( "worker kills",
        [
          Alcotest.test_case "rstack: kill inside alloc" `Quick
            (test_kill_in_alloc "rstack" ~push:"push" ~pop:"pop");
          Alcotest.test_case "rqueue: kill inside alloc" `Quick
            (test_kill_in_alloc "rqueue" ~push:"enq" ~pop:"deq");
        ] );
    ]
