(* Tier-1 tests for the systematic model checker (lib/mc).

   The headline property is the deterministic, exhaustive E3: the paper's
   buggy recoverable CAS loses a success under a specific
   interleaving+crash combination, and the explorer must find it — and
   certify the correct CAS — with zero randomness.  Tests run at
   preemption bound 1 (the bug needs only one preemption) to keep the
   tier-1 suite fast; the CLI smoke in CI runs the acceptance bound 2. *)

module Crash = Nvram.Crash
module Pmem = Nvram.Pmem
module Workload = Fuzz.Workload
module Schedule = Fuzz.Schedule
module Harness = Fuzz.Harness
module Reproducer = Fuzz.Reproducer
module Coop = Mc.Coop
module Explore = Mc.Explore

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* The E3 workload: one CAS per worker, chained over distinct values, so a
   lost success leaves no Eulerian path. *)
let e3_workload kind =
  {
    Workload.kind;
    workers = 2;
    init = 0;
    ops = [ Workload.Cas (0, 1); Workload.Cas (1, 2) ];
  }

let config = { Explore.default_config with Explore.preempt_bound = 1 }

(* Same bounds, no reduction: the exhaustive reference the differential
   tests compare the reduced search against. *)
let brute_config = { config with Explore.por = false }

let explore workload = Explore.explore ~config workload

let violation_exn = function
  | Explore.Violation (v, stats) -> (v, stats)
  | Explore.Certified stats ->
      Alcotest.failf "expected a violation, certified after %a"
        Explore.pp_stats stats
  | Explore.Budget_exhausted _ -> Alcotest.fail "search budget exhausted"

let test_buggy_cas_found () =
  let v, stats = violation_exn (explore (e3_workload Workload.Rcas_buggy)) in
  Alcotest.(check bool)
    "non-serializable" true
    (contains v.Explore.reason "NOT serializable");
  Alcotest.(check bool) "some search happened" true (stats.Explore.executions > 0);
  (* The adversary is replayable: a crash point and an interleaving. *)
  Alcotest.(check bool)
    "has a crash era" true
    (v.Explore.schedule.Schedule.eras <> []);
  Alcotest.(check bool)
    "has an interleaving" true
    (v.Explore.schedule.Schedule.interleave <> []);
  (* A violation found by the reduced search records its provenance. *)
  Alcotest.(check bool) "por metadata" true v.Explore.schedule.Schedule.por

let certified_exn label = function
  | Explore.Certified stats -> stats
  | Explore.Violation (v, _) ->
      Alcotest.failf "%s flagged: %s" label v.Explore.reason
  | Explore.Budget_exhausted _ ->
      Alcotest.failf "%s: search budget exhausted" label

let test_correct_cas_certified_brute () =
  let stats =
    certified_exn "correct CAS (brute)"
      (Explore.explore ~config:brute_config (e3_workload Workload.Rcas))
  in
  (* The exhaustive certificate must quantify real coverage: thousands of
     executions, most of them crash placements. *)
  Alcotest.(check bool)
    "explored many interleavings" true
    (stats.Explore.executions > 1_000);
  Alcotest.(check bool)
    "explored crash placements" true
    (stats.Explore.crash_placements > 1_000)

(* The headline reduction claim, differentially: DPOR certifies the same
   workload the brute search certifies, in at most a fifth of the
   executions, and its stats expose the race reversals that drove the
   backtracking. *)
let test_dpor_certifies_with_fewer_executions () =
  let workload = e3_workload Workload.Rcas in
  let brute =
    certified_exn "correct CAS (brute)"
      (Explore.explore ~config:brute_config workload)
  in
  let dpor = certified_exn "correct CAS (dpor)" (explore workload) in
  Alcotest.(check bool)
    "at most a fifth of the brute executions" true
    (dpor.Explore.executions * 5 <= brute.Explore.executions);
  Alcotest.(check bool)
    "race reversals were queued" true
    (dpor.Explore.races > 0);
  Alcotest.(check int) "brute queues no reversals" 0 brute.Explore.races

(* Soundness side of the differential: on buggy workloads both modes must
   find the SAME violation — reduction may skip equivalent interleavings,
   never the distinguishing one. *)
let differential_violation workload =
  let v_dpor, s_dpor = violation_exn (Explore.explore ~config workload) in
  let v_brute, s_brute =
    violation_exn (Explore.explore ~config:brute_config workload)
  in
  Alcotest.(check string)
    "same violation in both modes" v_brute.Explore.reason
    v_dpor.Explore.reason;
  (s_dpor, s_brute)

let test_differential_buggy_cas () =
  let s_dpor, s_brute =
    differential_violation (e3_workload Workload.Rcas_buggy)
  in
  (* Two racing workers: the reduction must actually reduce. *)
  Alcotest.(check bool)
    "strictly fewer executions to the bug" true
    (s_dpor.Explore.executions < s_brute.Explore.executions)

let test_differential_faulty () =
  (* Faulty is single-worker, so there are no interleavings to reduce —
     the two searches walk the same tree but visit its crash leaves in a
     different order (reduced: shallow-first along each trace; brute DFS:
     deep-first), so executions-until-violation is not comparable.  The
     verdict is; so is total work, loosely. *)
  let rng = Random.State.make [| 1 |] in
  let workload = Workload.generate Workload.Faulty ~rng ~n_ops:4 ~workers:1 in
  let s_dpor, s_brute = differential_violation workload in
  Alcotest.(check bool)
    "reduction does no more decision work" true
    (s_dpor.Explore.points <= s_brute.Explore.points)

(* A run that trips the per-execution decision cap must end the search
   with [Budget_exhausted] and partial stats — never an exception, never a
   spurious violation (the regression: this used to raise). *)
let test_tiny_max_points_is_budget_exhausted () =
  let tiny = { config with Explore.max_points = 5 } in
  match Explore.explore ~config:tiny (e3_workload Workload.Rcas) with
  | Explore.Budget_exhausted stats ->
      Alcotest.(check bool)
        "partial stats are reported" true
        (stats.Explore.points > 0)
  | Explore.Certified _ ->
      Alcotest.fail "a 5-point budget cannot cover the CAS workload"
  | Explore.Violation (v, _) ->
      Alcotest.failf "budget exhaustion surfaced as a violation: %s"
        v.Explore.reason

let test_exploration_deterministic () =
  let run () =
    let v, stats = violation_exn (explore (e3_workload Workload.Rcas_buggy)) in
    ( v.Explore.reason,
      Schedule.to_lines v.Explore.schedule,
      stats.Explore.executions,
      stats.Explore.points )
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check bool) "identical runs" true (r1 = r2)

let test_reproducer_round_trips_and_replays () =
  let workload = e3_workload Workload.Rcas_buggy in
  let v, _ = violation_exn (explore workload) in
  let repro = Explore.reproducer ~workload v in
  match Reproducer.of_lines (Reproducer.to_lines repro) with
  | Error msg -> Alcotest.fail msg
  | Ok repro' -> (
      Alcotest.(check bool) "round trip" true (repro = repro');
      match Explore.replay repro' with
      | { Harness.verdict = Harness.Fail msg; _ } ->
          Alcotest.(check string)
            "replay reproduces the violation" v.Explore.reason msg
      | { Harness.verdict = Harness.Fatal msg; _ } ->
          Alcotest.failf "replay died unrecoverably: %s" msg
      | { Harness.verdict = Harness.Pass; _ } ->
          Alcotest.fail "replay did not reproduce the violation")

let test_user_check_runs_at_terminal_states () =
  let seen = ref 0 in
  let check (_ : Harness.outcome) =
    incr seen;
    if !seen >= 3 then Error "user assertion tripped" else Ok ()
  in
  match Explore.explore ~config ~check (e3_workload Workload.Rcas) with
  | Explore.Violation (v, stats) ->
      Alcotest.(check string)
        "user reason surfaces" "user assertion tripped" v.Explore.reason;
      Alcotest.(check int) "stopped at the third state" 3
        stats.Explore.executions
  | _ -> Alcotest.fail "expected the user assertion to stop the search"

(* The chain structures with two cooperative workers: both fibers share one
   domain, so a node allocated through a heap handle routed by domain
   would have both contend for one arena lock, and a fiber suspended at a
   store inside the allocator would still hold it when the other one
   allocates.  The op binders allocate from the worker's own arena. *)
let test_chain_structures_two_workers () =
  List.iter
    (fun kind ->
      let rng = Random.State.make [| 1 |] in
      let workload = Workload.generate kind ~rng ~n_ops:4 ~workers:2 in
      ignore (certified_exn (Workload.kind_to_string kind) (explore workload)))
    [ Workload.Rstack; Workload.Rqueue; Workload.Rmap ]

(* Eager/coalesced equivalence: the two-phase check must certify the
   correct counter on a cached device (the one workload where coalescing
   actually defers write-backs), and it must demonstrably FIRE when the
   coalescer's drain forgets a write-back — a green certificate from a
   check that cannot fail would be worthless. *)
let rcounter_workload n =
  {
    Workload.kind = Workload.Rcounter;
    workers = 1;
    init = 0;
    ops = List.init n (fun _ -> Workload.Bump);
  }

let test_equivalence_certified () =
  match Explore.check_equivalence ~config (rcounter_workload 4) with
  | Explore.Equivalent { eager; coalesced; distinct_states } ->
      Alcotest.(check bool) "some states" true (distinct_states >= 1);
      (* Crash-point numbering parity: a coalesced flush consults the
         scheduler exactly like an eager one, so both phases must explore
         the same tree — same execution and decision counts. *)
      Alcotest.(check int)
        "same executions in both modes" eager.Explore.executions
        coalesced.Explore.executions;
      Alcotest.(check int)
        "same decision points in both modes" eager.Explore.points
        coalesced.Explore.points
  | Explore.Divergent (v, _) ->
      Alcotest.failf "unexpected divergence: %s" v.Explore.reason
  | Explore.Equivalence_inconclusive msg -> Alcotest.fail msg

let test_equivalence_catches_broken_drain () =
  match
    Explore.check_equivalence ~config ~broken_drain:true (rcounter_workload 4)
  with
  | Explore.Divergent (v, _) ->
      Alcotest.(check bool)
        "divergence carries a reason" true
        (String.length v.Explore.reason > 0);
      Alcotest.(check bool)
        "divergence carries a replayable schedule" true
        (v.Explore.schedule.Schedule.eras <> []
        || v.Explore.schedule.Schedule.interleave <> [])
  | Explore.Equivalent _ ->
      Alcotest.fail
        "sabotaged drain was NOT caught — the equivalence check is vacuous"
  | Explore.Equivalence_inconclusive msg -> Alcotest.fail msg

(* Trace properties along every explored path.  Monitors are pure
   observers: arming them must not change the decision tree, so a correct
   workload certifies with exactly the counts of the unmonitored search. *)
let test_props_pass_on_correct_workloads () =
  let workload = rcounter_workload 3 in
  let plain = certified_exn "rcounter" (explore workload) in
  let monitored =
    certified_exn "rcounter+props"
      (Explore.explore ~config ~props:Mc.Prop.all workload)
  in
  Alcotest.(check int)
    "monitors do not perturb the search" plain.Explore.executions
    monitored.Explore.executions;
  ignore
    (certified_exn "rcas+props"
       (Explore.explore ~config ~props:Mc.Prop.all
          (e3_workload Workload.Rcas)))

(* The property layer's teeth, with a replayable artifact: hide flushes
   from the monitors and response-implies-persist must fire; the
   reproducer it yields must re-fire under a sabotaged replay and pass a
   clean one. *)
let test_prop_sabotage_caught_with_reproducer () =
  let workload = rcounter_workload 3 in
  match
    Explore.explore ~config ~props:Mc.Prop.all ~prop_sabotage:true workload
  with
  | Explore.Certified _ ->
      Alcotest.fail "sabotaged property stream was NOT caught"
  | Explore.Budget_exhausted _ -> Alcotest.fail "search budget exhausted"
  | Explore.Violation (v, _) -> (
      Alcotest.(check bool)
        "the persistence property fired" true
        (contains v.Explore.reason "property response-implies-persist");
      let repro = Explore.reproducer ~workload v in
      (match Reproducer.of_lines (Reproducer.to_lines repro) with
      | Error msg -> Alcotest.fail msg
      | Ok repro' -> Alcotest.(check bool) "round trip" true (repro = repro'));
      (match
         Explore.replay_checked ~config ~props:Mc.Prop.all ~prop_sabotage:true
           repro
       with
      | _, Some (prop, _) ->
          Alcotest.(check string)
            "replay re-fires the same property" "response-implies-persist"
            prop
      | _, None -> Alcotest.fail "sabotaged replay did not re-fire");
      match Explore.replay_checked ~config ~props:Mc.Prop.all repro with
      | { Harness.verdict = Harness.Pass; _ }, None -> ()
      | _, Some (prop, msg) ->
          Alcotest.failf "clean replay violated %s: %s" prop msg
      | { Harness.verdict = Harness.Fail msg; _ }, _
      | { Harness.verdict = Harness.Fatal msg; _ }, _ ->
          Alcotest.failf "clean replay failed: %s" msg)

(* The cooperative scheduler alone: a scripted decide sequence drives two
   fibers deterministically, decision points expose the crash-op counter,
   and a Crash_here decision stops the run with the crashed flag set. *)
let test_coop_points_and_crash () =
  let pmem = Pmem.create ~size:4096 () in
  let ctl = Pmem.crash_ctl pmem in
  Crash.arm ctl Crash.Never;
  let points = ref [] in
  let decide (p : Coop.point) =
    points := p :: !points;
    if p.Coop.index = 4 then Coop.Crash_here
    else Coop.default_decision p
  in
  let spawn = Coop.spawn ~crash_ctl:ctl ~decide in
  let writes = Array.make 2 0 in
  let body i =
    for k = 0 to 9 do
      try
        Pmem.write_int pmem (Nvram.Offset.of_int (((i * 10) + k) * 8)) k;
        writes.(i) <- writes.(i) + 1
      with Crash.Crash_now -> raise Crash.Crash_now
    done
  in
  let swallow i = try body i with Crash.Crash_now -> () in
  spawn swallow 2;
  Alcotest.(check bool) "crashed" true (Crash.crashed ctl);
  let points = List.rev !points in
  Alcotest.(check int) "five decisions" 5 (List.length points);
  List.iteri
    (fun i (p : Coop.point) ->
      Alcotest.(check int) "indices in order" i p.Coop.index;
      Alcotest.(check bool) "both workers enabled" true
        (p.Coop.enabled = [ 0; 1 ]))
    points;
  (* Decisions 0-3 ran worker 0 (default policy).  A fiber's first step
     only reaches the entry of its first persistence op (it yields before
     executing it), so 4 steps complete 3 writes; the 4th, pending at the
     crash, never takes effect — and none from worker 1. *)
  Alcotest.(check int) "worker 0 completed three writes" 3 writes.(0);
  Alcotest.(check int) "worker 1 never ran" 0 writes.(1);
  (* The op counter at each point equals the writes completed so far. *)
  List.iteri
    (fun i (p : Coop.point) ->
      Alcotest.(check int) "op counter" (max 0 (i - 1)) p.Coop.op)
    points;
  (* Footprints for the reduction: no fiber has reached a device op at the
     first point; afterwards worker 0 sits suspended at the entry of its
     next write, and the point carries that operation's cache-line range
     (offsets 0..24 of this trace all land on line 0). *)
  (match points with
  | p0 :: rest ->
      Alcotest.(check bool) "no pending footprint at startup" true
        (p0.Coop.pending = []);
      Alcotest.(check bool) "no reads before the first step" true
        (p0.Coop.prev_reads = []);
      List.iter
        (fun (p : Coop.point) ->
          match List.assoc_opt 0 p.Coop.pending with
          | Some acc ->
              Alcotest.(check bool) "pending op is a write" true
                (acc.Crash.kind = Crash.Write);
              Alcotest.(check int) "write footprint line" 0
                acc.Crash.first_line;
              Alcotest.(check int) "single-line footprint" acc.Crash.first_line
                acc.Crash.last_line
          | None -> Alcotest.fail "worker 0 should be suspended at a write")
        rest
  | [] -> Alcotest.fail "no decision points recorded")

let () =
  Alcotest.run "mc"
    [
      ( "coop",
        [
          Alcotest.test_case "points, default policy, crash" `Quick
            test_coop_points_and_crash;
        ] );
      ( "explore",
        [
          Alcotest.test_case "buggy CAS violation found" `Quick
            test_buggy_cas_found;
          Alcotest.test_case "correct CAS certified (brute force)" `Quick
            test_correct_cas_certified_brute;
          Alcotest.test_case "dpor certifies in <= 1/5 the executions" `Quick
            test_dpor_certifies_with_fewer_executions;
          Alcotest.test_case "dpor and brute agree on buggy CAS" `Quick
            test_differential_buggy_cas;
          Alcotest.test_case "dpor and brute agree on faulty counter" `Quick
            test_differential_faulty;
          Alcotest.test_case "tiny max_points is Budget_exhausted" `Quick
            test_tiny_max_points_is_budget_exhausted;
          Alcotest.test_case "exploration deterministic" `Quick
            test_exploration_deterministic;
          Alcotest.test_case "reproducer round-trips and replays" `Quick
            test_reproducer_round_trips_and_replays;
          Alcotest.test_case "user check at terminal states" `Quick
            test_user_check_runs_at_terminal_states;
          Alcotest.test_case "chain structures certified with 2 workers"
            `Quick test_chain_structures_two_workers;
        ] );
      ( "props",
        [
          Alcotest.test_case "monitors pass on correct workloads" `Quick
            test_props_pass_on_correct_workloads;
          Alcotest.test_case "sabotaged stream caught, reproducer replays"
            `Quick test_prop_sabotage_caught_with_reproducer;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "eager/coalesced certified on rcounter" `Quick
            test_equivalence_certified;
          Alcotest.test_case "sabotaged drain is caught" `Quick
            test_equivalence_catches_broken_drain;
        ] );
    ]
