type config = {
  seed : int;
  runs : int;
  kinds : Workload.kind list;
  max_ops : int;
  max_workers : int;
  max_eras : int;
  shrink_attempts : int;
  faults : bool;
  sabotage : bool;
}

let default =
  {
    seed = 1;
    runs = 50;
    kinds = Workload.correct_kinds;
    max_ops = 48;
    max_workers = 4;
    max_eras = 4;
    shrink_attempts = 150;
    faults = false;
    sabotage = false;
  }

type failure = {
  case : int;
  workload : Workload.t;
  schedule : Schedule.t;
  outcome : Harness.outcome;
  shrunk : Shrink.result;
  trace : Obs.Trace.event list;
}

type report = { cases : int; failures : failure list; fatals : int }

(* Case [i]'s workload and schedule, and its generator past those draws —
   the state its scheduling policy starts from. *)
let draw config i =
  if config.kinds = [] then invalid_arg "Campaign: no workload kinds";
  let rng = Random.State.make [| config.seed; i |] in
  let kind =
    List.nth config.kinds (Random.State.int rng (List.length config.kinds))
  in
  let n_ops = 1 + Random.State.int rng (max config.max_ops 1) in
  let workers = 1 + Random.State.int rng (max config.max_workers 1) in
  let workload = Workload.generate kind ~rng ~n_ops ~workers in
  let schedule =
    Schedule.generate ~faults:config.faults ~rng ~max_eras:config.max_eras ()
  in
  (* Drawn last: case [i]'s workload and schedule do not depend on it. *)
  let stack =
    List.nth Workload.stacks
      (Random.State.int rng (List.length Workload.stacks))
  in
  ({ workload with Workload.stack }, schedule, rng)

let case_inputs config i =
  let workload, schedule, _ = draw config i in
  (workload, schedule)

(* Re-run the shrunk case once with observability on to harvest the
   moments leading up to the failure.  The trace is captured here, not
   during the search: the ring is global, so a later case would overwrite
   it, and the shrunk case is the one the artifact replays anyway. *)
let trace_of_shrunk ?(tail = 64) ?sabotage (shrunk : Shrink.result) =
  Obs.Config.with_enabled true (fun () ->
      Obs.Trace.clear ();
      ignore
        (Harness.run ?sabotage shrunk.Shrink.workload shrunk.Shrink.schedule);
      let events = Obs.Trace.tail tail in
      Obs.Trace.clear ();
      events)

let reproducer_of_failure config failure =
  {
    Reproducer.seed = Some config.seed;
    case = Some failure.case;
    workload = failure.shrunk.Shrink.workload;
    schedule = failure.shrunk.Shrink.schedule;
    expected =
      (match failure.shrunk.Shrink.outcome.Harness.verdict with
      | Harness.Fail msg -> Some msg
      | Harness.Fatal msg -> Some ("fatal: " ^ msg)
      | Harness.Pass -> None);
    trace = failure.trace;
  }

let run ?(log = fun _ -> ()) config =
  let failures = ref [] in
  let fatals = ref 0 in
  let record_failure i workload schedule outcome msg =
    log
      (Format.asprintf "case %4d: %a | %a | FAIL: %s" i Workload.pp workload
         Schedule.pp schedule msg);
    (* The policy's choices become the schedule's prefix: from here on the
       case replays under the default policy, exactly. *)
    let schedule =
      { schedule with Schedule.interleave = outcome.Harness.interleave }
    in
    let shrunk =
      (* A sabotage finding is a property of the two-run comparison, not
         of either run alone — the single-run shrinker cannot validate
         candidates against it (and the sabotaged side may even be a
         pass).  Ship the case unshrunk. *)
      if config.sabotage then
        { Shrink.workload; schedule; outcome; attempts = 0 }
      else
        Shrink.shrink ~max_attempts:config.shrink_attempts workload schedule
          outcome
    in
    log
      (Format.asprintf "           shrunk to %a | %a (%d runs)" Workload.pp
         shrunk.Shrink.workload Schedule.pp shrunk.Shrink.schedule
         shrunk.Shrink.attempts);
    let trace = trace_of_shrunk ~sabotage:config.sabotage shrunk in
    failures :=
      { case = i; workload; schedule; outcome; shrunk; trace } :: !failures
  in
  let verdict_str = function
    | Harness.Pass -> "pass"
    | Harness.Fail msg -> "FAIL: " ^ msg
    | Harness.Fatal msg -> "fatal: " ^ msg
  in
  for i = 0 to config.runs - 1 do
    let workload, schedule, rng = draw config i in
    (* A uniform-random interleaving drawn from the case's own generator,
       restarted for every run of the case. *)
    let decide () = Runtime.Coop.random_decision (Random.State.copy rng) in
    if config.sabotage then begin
      (* Self-check mode is differential: run the case with checksum
         verification on, then with it disabled, and flag every case
         whose outcome changes.  Detection power is exactly the set of
         outcomes verification alters — a sabotaged-only oracle would be
         fooled by loud fatals that fire identically in both modes. *)
      let baseline = Harness.run ~decide workload schedule in
      let sabotaged = Harness.run ~decide ~sabotage:true workload schedule in
      let same =
        sabotaged.Harness.verdict = baseline.Harness.verdict
        && sabotaged.Harness.fingerprint = baseline.Harness.fingerprint
      in
      match sabotaged.Harness.verdict with
      | Harness.Fail msg -> record_failure i workload schedule sabotaged msg
      | _ when not same ->
          record_failure i workload schedule sabotaged
            (Printf.sprintf "sabotage divergence: %s (checksums on: %s)"
               (verdict_str sabotaged.Harness.verdict)
               (verdict_str baseline.Harness.verdict))
      | _ ->
          log
            (Format.asprintf "case %4d: %a | %a | sabotage inert (%s)" i
               Workload.pp workload Schedule.pp schedule
               (verdict_str sabotaged.Harness.verdict))
    end
    else
      let outcome = Harness.run ~decide workload schedule in
      match outcome.Harness.verdict with
      | Harness.Pass ->
          log
            (Format.asprintf "case %4d: %a | %a | pass" i Workload.pp workload
               Schedule.pp schedule)
      | Harness.Fatal msg when Schedule.has_faults schedule ->
          (* Recovery detected injected damage it could not degrade around
             and refused the image — the loud-failure arm of the
             no-silent-corruption oracle, not a finding. *)
          incr fatals;
          log
            (Format.asprintf "case %4d: %a | %a | fatal (faulted): %s" i
               Workload.pp workload Schedule.pp schedule msg)
      | Harness.Fail msg -> record_failure i workload schedule outcome msg
      | Harness.Fatal msg ->
          record_failure i workload schedule outcome ("fatal: " ^ msg)
  done;
  { cases = config.runs; failures = List.rev !failures; fatals = !fatals }
