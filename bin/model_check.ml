(* Systematic model checker CLI.

   Default mode is the exhaustive E3 experiment: a [--workers]-wide CAS
   workload is explored under iterative context bounding ([--preempt]
   preemptions, every single-crash placement) twice — once with the
   paper's buggy recoverable CAS, which MUST yield a non-serializable
   execution (printed and written as a replayable reproducer), and once
   with the correct CAS, which MUST certify clean with an
   explored-interleaving count.  No randomness anywhere: two invocations
   print the same verdicts and the same counts.

   The search runs with dynamic partial-order reduction by default;
   [--no-por] switches to the brute-force enumeration (same verdicts,
   orders of magnitude more executions — the differential CI leg runs
   both and compares).  [--prop P1,P2|all] arms the along-the-path trace
   properties; [--prop-sabotage] is the self-check leg: it hides every
   program-issued flush from the monitors on a cache-managed workload and
   exits 0 iff the response-implies-persist property fires.

   [--kind K] explores a single workload kind instead (with a short
   deterministic op trace), and [--replay FILE] re-runs a reproducer under
   the cooperative scheduler.  [--flush-mode coalesced] runs any of the
   above on coalescing devices.  [--equivalence] runs the two-phase
   eager/coalesced equivalence check on the correct-CAS pair and the
   rcounter workload; with [--broken-drain] the coalescer is sabotaged and
   the check MUST catch the divergence (exit 0 iff it does) — the CI leg
   that proves the certificate has teeth.  Exit codes: 0 expected outcome,
   1 violation-side surprise, 2 usage error. *)

module Pmem = Nvram.Pmem
module Workload = Fuzz.Workload
module Reproducer = Fuzz.Reproducer

(* One CAS per worker, chained over distinct values: worker i's success
   moves the register from i to i+1, so every lost or duplicated success
   breaks the Eulerian path and is caught by the serializability check. *)
let cas_workload ~kind ~workers =
  {
    Workload.kind;
    workers;
    init = 0;
    stack = Workload.default_stack;
    ops = List.init workers (fun i -> Workload.Cas (i, i + 1));
  }

let rcounter_workload ~n_ops =
  {
    Workload.kind = Workload.Rcounter;
    workers = 1;
    init = 0;
    stack = Workload.default_stack;
    ops = List.init (max 1 n_ops) (fun _ -> Workload.Bump);
  }

let config ~preempt ~max_executions ~flush_mode ~por =
  {
    Mc.Explore.default_config with
    Mc.Explore.preempt_bound = preempt;
    max_executions;
    flush_mode;
    por;
  }

(* --prop: comma-separated shipped property names, or "all". *)
let parse_props = function
  | None -> Ok []
  | Some "all" -> Ok Mc.Prop.all
  | Some spec ->
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (( <> ) "")
      |> List.fold_left
           (fun acc name ->
             match (acc, Mc.Prop.find name) with
             | Error _, _ -> acc
             | Ok ps, Some p -> Ok (ps @ [ p ])
             | Ok _, None ->
                 Error
                   (Printf.sprintf "unknown property %S (known: %s, or all)"
                      name
                      (String.concat ", " (List.map Mc.Prop.name Mc.Prop.all))))
           (Ok [])

let explore_one ~label ~config ~props ?(prop_sabotage = false) ~out workload =
  Format.printf "[%s] exploring %a (preempt bound %d%s%s)@." label Workload.pp
    workload config.Mc.Explore.preempt_bound
    (if config.Mc.Explore.por then ", por" else ", brute force")
    (match props with
    | [] -> ""
    | ps ->
        Printf.sprintf ", props %s"
          (String.concat "," (List.map Mc.Prop.name ps)));
  let verdict = Mc.Explore.explore ~config ~props ~prop_sabotage workload in
  (match verdict with
  | Mc.Explore.Certified stats ->
      Format.printf "[%s] certified: no violation within bounds — %a@." label
        Mc.Explore.pp_stats stats
  | Mc.Explore.Violation (v, stats) ->
      Format.printf "[%s] VIOLATION: %s@." label v.Mc.Explore.reason;
      Format.printf "[%s] after %a@." label Mc.Explore.pp_stats stats;
      let repro = Mc.Explore.reproducer ~workload v in
      print_endline "--- reproducer ---";
      List.iter print_endline (Reproducer.to_lines repro);
      print_endline "--- end reproducer ---";
      (match out with
      | None -> ()
      | Some path ->
          Reproducer.write path repro;
          Printf.printf "wrote %s\n" path)
  | Mc.Explore.Budget_exhausted stats ->
      Format.printf "[%s] budget exhausted: %a@." label Mc.Explore.pp_stats
        stats);
  verdict

(* The headline E3 deliverable: the buggy CAS must be caught, the correct
   one must be certified — both exhaustively and deterministically. *)
let run_e3 ~workers ~preempt ~max_executions ~flush_mode ~por ~props ~out =
  let config = config ~preempt ~max_executions ~flush_mode ~por in
  let buggy =
    explore_one ~label:"buggy-cas" ~config ~props ~out:(Some out)
      (cas_workload ~kind:Workload.Rcas_buggy ~workers)
  in
  let correct =
    explore_one ~label:"correct-cas" ~config ~props ~out:None
      (cas_workload ~kind:Workload.Rcas ~workers)
  in
  match (buggy, correct) with
  | Mc.Explore.Violation _, Mc.Explore.Certified _ ->
      print_endline "model_check: OK (bug found, correct CAS certified)";
      0
  | _ ->
      prerr_endline
        "model_check: FAILED (expected a buggy-CAS violation and a \
         correct-CAS certificate)";
      1

let run_kind ~kind ~workers ~preempt ~max_executions ~flush_mode ~por ~props
    ~n_ops ~out =
  match Workload.kind_of_string kind with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok kind ->
      let config = config ~preempt ~max_executions ~flush_mode ~por in
      let workload =
        match kind with
        | Workload.Rcas | Workload.Rcas_buggy ->
            cas_workload ~kind ~workers
        | _ ->
            (* A short deterministic trace; seeded generation would also
               work but a fixed trace keeps the run self-describing. *)
            let rng = Random.State.make [| 1 |] in
            Workload.generate kind ~rng ~n_ops ~workers
      in
      let expect_violation =
        match kind with
        | Workload.Rcas_buggy | Workload.Faulty -> true
        | _ -> false
      in
      let verdict =
        explore_one
          ~label:(Workload.kind_to_string kind)
          ~config ~props ~out:(Some out) workload
      in
      (match (verdict, expect_violation) with
      | Mc.Explore.Violation _, true | Mc.Explore.Certified _, false -> 0
      | _ -> 1)

(* The property self-check deliverable: with flushes hidden from the
   monitors, the response-implies-persist property must flag the
   cache-managed counter's first response — and the reproducer it writes
   must re-fire under a sabotaged replay.  Exit 0 iff both hold. *)
let run_prop_sabotage ~preempt ~max_executions ~por ~n_ops ~out =
  let config = config ~preempt ~max_executions ~flush_mode:Pmem.Eager ~por in
  let workload = rcounter_workload ~n_ops in
  match
    explore_one ~label:"prop-sabotage" ~config ~props:Mc.Prop.all
      ~prop_sabotage:true ~out:(Some out) workload
  with
  | Mc.Explore.Violation (v, _) -> (
      let fired p =
        let n = Mc.Prop.name p and r = v.Mc.Explore.reason in
        let ln = String.length n and lr = String.length r in
        let rec go i = i + ln <= lr && (String.sub r i ln = n || go (i + 1)) in
        go 0
      in
      if not (List.exists fired Mc.Prop.all) then begin
        prerr_endline
          "model_check: FAILED (sabotaged run violated something other \
           than a trace property)";
        1
      end
      else
        let repro = Mc.Explore.reproducer ~workload v in
        match
          Mc.Explore.replay_checked ~config ~props:Mc.Prop.all
            ~prop_sabotage:true repro
        with
        | _, Some (prop, _) ->
            Printf.printf
              "model_check: OK (sabotaged property %s fired and its \
               reproducer re-fires on replay)\n"
              prop;
            0
        | _, None ->
            prerr_endline
              "model_check: FAILED (sabotage reproducer did not re-fire \
               on replay)";
            1)
  | Mc.Explore.Certified _ ->
      prerr_endline
        "model_check: FAILED (property sabotage was NOT caught — the \
         trace-property layer has no teeth)";
      1
  | Mc.Explore.Budget_exhausted _ ->
      prerr_endline "model_check: FAILED (sabotage search exhausted budget)";
      1

(* The equivalence deliverable: the coalesced search must reach no recovery
   state the eager search cannot.  The correct-CAS pair runs on an
   auto-flush device (coalescing inert — a sanity leg), rcounter on the
   cached device where coalescing actually defers write-backs.  With
   [broken_drain] the sabotaged coalescer MUST be caught on the cached
   workload; exit 0 iff a divergence fired. *)
let run_equivalence ~workers ~preempt ~max_executions ~por ~props ~n_ops
    ~broken_drain ~out =
  let config = config ~preempt ~max_executions ~flush_mode:Pmem.Eager ~por in
  let rng = Random.State.make [| 1 |] in
  let workloads =
    [
      cas_workload ~kind:Workload.Rcas ~workers;
      Workload.generate Workload.Rcounter ~rng ~n_ops ~workers;
    ]
  in
  let check workload =
    Format.printf "[equivalence] %a (preempt bound %d%s%s)@." Workload.pp
      workload config.Mc.Explore.preempt_bound
      (if config.Mc.Explore.por then ", por" else ", brute force")
      (if broken_drain then ", drain sabotaged" else "");
    match
      Mc.Explore.check_equivalence ~config ~broken_drain ~props workload
    with
    | Mc.Explore.Equivalent { eager; coalesced; distinct_states } ->
        Format.printf
          "[equivalence] equivalent: %d distinct recovery states; eager %a; \
           coalesced %a@."
          distinct_states Mc.Explore.pp_stats eager Mc.Explore.pp_stats
          coalesced;
        `Equivalent
    | Mc.Explore.Divergent (v, stats) ->
        Format.printf "[equivalence] DIVERGENCE: %s@." v.Mc.Explore.reason;
        Format.printf "[equivalence] after %a@." Mc.Explore.pp_stats stats;
        let repro = Mc.Explore.reproducer ~workload v in
        print_endline "--- reproducer (replay with --flush-mode coalesced) ---";
        List.iter print_endline (Reproducer.to_lines repro);
        print_endline "--- end reproducer ---";
        Reproducer.write out repro;
        Printf.printf "wrote %s\n" out;
        `Divergent
    | Mc.Explore.Equivalence_inconclusive msg ->
        Format.printf "[equivalence] inconclusive: %s@." msg;
        `Inconclusive
  in
  let results = List.map check workloads in
  if broken_drain then
    if List.mem `Divergent results then begin
      print_endline
        "model_check: OK (sabotaged drain caught by the equivalence check)";
      0
    end
    else begin
      prerr_endline
        "model_check: FAILED (sabotaged drain was NOT caught — the \
         equivalence check has no teeth)";
      1
    end
  else if List.for_all (fun r -> r = `Equivalent) results then begin
    print_endline "model_check: OK (eager and coalesced flushing equivalent)";
    0
  end
  else begin
    prerr_endline
      "model_check: FAILED (eager/coalesced divergence or inconclusive \
       phase)";
    1
  end

let run_replay ~flush_mode ~props ~prop_sabotage path =
  match Reproducer.read path with
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      2
  | Ok repro -> (
      Format.printf "replaying %a | %a@." Workload.pp
        repro.Reproducer.workload Fuzz.Schedule.pp repro.Reproducer.schedule;
      (match repro.Reproducer.expected with
      | Some msg -> Printf.printf "expected failure: %s\n" msg
      | None -> ());
      let config =
        { Mc.Explore.default_config with Mc.Explore.flush_mode }
      in
      let outcome, prop_failure =
        Mc.Explore.replay_checked ~config ~props ~prop_sabotage repro
      in
      let failed = repro.Reproducer.expected <> None in
      match (outcome.Fuzz.Harness.verdict, prop_failure) with
      | Fuzz.Harness.Pass, None ->
          print_endline "verdict: pass";
          if failed then 1 else 0
      | Fuzz.Harness.Pass, Some (prop, msg) ->
          Printf.printf "verdict: PROPERTY VIOLATION: %s: %s\n" prop msg;
          if failed then 0 else 1
      | Fuzz.Harness.Fail msg, _ ->
          Printf.printf "verdict: FAIL: %s\n" msg;
          if failed then 0 else 1
      | Fuzz.Harness.Fatal msg, _ ->
          Printf.printf "verdict: FATAL: %s\n" msg;
          if failed then 0 else 1)

open Cmdliner

let main_term =
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"W" ~doc:"Worker count.")
  in
  let preempt =
    Arg.(
      value & opt int 2
      & info [ "preempt" ] ~docv:"B" ~doc:"Preemption bound (context bound).")
  in
  let max_executions =
    Arg.(
      value
      & opt int Mc.Explore.default_config.Mc.Explore.max_executions
      & info [ "max-executions" ] ~docv:"N" ~doc:"Search budget.")
  in
  let n_ops =
    Arg.(
      value & opt int 6
      & info [ "ops" ] ~docv:"N" ~doc:"Op-trace length for --kind workloads.")
  in
  let kind =
    Arg.(
      value
      & opt (some string) None
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Explore one workload kind (rstack, rqueue, rmap, rcas, \
             rcas-buggy, faulty, rcounter) instead of the E3 pair.")
  in
  let flush_mode =
    Arg.(
      value
      & opt (enum [ ("eager", Pmem.Eager); ("coalesced", Pmem.Coalesced) ])
          Pmem.Eager
      & info [ "flush-mode" ] ~docv:"MODE"
          ~doc:
            "Device flush mode for exploration and replay: $(b,eager) \
             (default) or $(b,coalesced) (FliT-style write-behind).")
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ]
          ~doc:
            "Disable dynamic partial-order reduction: brute-force \
             enumeration of every interleaving within the bound (same \
             verdicts, far more executions).")
  in
  let props =
    Arg.(
      value
      & opt (some string) None
      & info [ "prop" ] ~docv:"P1,P2|all"
          ~doc:
            "Arm along-the-path trace properties (comma-separated names, \
             or $(b,all)): violations stop the search with a replayable \
             reproducer.")
  in
  let prop_sabotage =
    Arg.(
      value & flag
      & info [ "prop-sabotage" ]
          ~doc:
            "Self-check: hide program-issued flushes from the property \
             monitors on a cache-managed workload and demand \
             response-implies-persist fires (exit 0 iff it does).  With \
             $(b,--replay), replays the file under the sabotaged stream.")
  in
  let equivalence =
    Arg.(
      value & flag
      & info [ "equivalence" ]
          ~doc:
            "Run the two-phase eager/coalesced equivalence check instead \
             of the E3 pair.")
  in
  let broken_drain =
    Arg.(
      value & flag
      & info [ "broken-drain" ]
          ~doc:
            "With $(b,--equivalence): sabotage the coalescer's drain and \
             demand the check catches it (exit 0 iff a divergence fires).")
  in
  let out =
    Arg.(
      value
      & opt string "model_check.repro"
      & info [ "out" ] ~docv:"FILE" ~doc:"Violation reproducer path.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run a reproducer under the cooperative scheduler.")
  in
  let run replay kind flush_mode no_por props prop_sabotage equivalence
      broken_drain workers preempt max_executions n_ops out =
    let por = not no_por in
    Stdlib.exit
      (match parse_props props with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          2
      | Ok props -> (
          match (replay, prop_sabotage, equivalence, kind) with
          | Some path, _, _, _ ->
              (* Sabotaged replay needs monitors to sabotage. *)
              let props =
                if prop_sabotage && props = [] then Mc.Prop.all else props
              in
              run_replay ~flush_mode ~props ~prop_sabotage path
          | None, true, _, _ ->
              run_prop_sabotage ~preempt ~max_executions ~por ~n_ops ~out
          | None, false, true, _ ->
              run_equivalence ~workers ~preempt ~max_executions ~por ~props
                ~n_ops ~broken_drain ~out
          | None, false, false, Some kind ->
              run_kind ~kind ~workers ~preempt ~max_executions ~flush_mode
                ~por ~props ~n_ops ~out
          | None, false, false, None ->
              run_e3 ~workers ~preempt ~max_executions ~flush_mode ~por ~props
                ~out))
  in
  Term.(
    const run $ replay $ kind $ flush_mode $ no_por $ props $ prop_sabotage
    $ equivalence $ broken_drain $ workers $ preempt $ max_executions $ n_ops
    $ out)

let () =
  let doc =
    "Systematic model checker: interleavings and crash points under a \
     preemption bound, reduced by dynamic partial-order reduction."
  in
  Stdlib.exit (Cmd.eval' (Cmd.v (Cmd.info "model_check" ~doc) main_term))
