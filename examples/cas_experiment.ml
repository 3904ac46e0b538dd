(* The running example of Section 5.2 as a command-line tool.

   Generates a random CAS workload, executes it on the persistent-stack
   runtime with 4 (or --workers) workers under simulated crashes, and
   verifies the resulting execution for serializability.  Each seed's run
   is a fuzz case (Fuzz.Harness.run): the workers are cooperative fibers
   interleaved by a policy seeded from the seed, so one seed always
   prints the same result.

   Examples:
     dune exec examples/cas_experiment.exe -- --range wide
     dune exec examples/cas_experiment.exe -- --range narrow --ops 200
     dune exec examples/cas_experiment.exe -- --impl buggy --range tight \
         --workers 8 --crash-prob 0.02 --seeds 10 *)

let run ops range seed seeds workers impl crash_prob crash_every stack =
  let range =
    match range with
    | "wide" -> Verify.Generator.Wide
    | "narrow" -> Verify.Generator.Narrow
    | "tight" -> Verify.Generator.Custom (0, 1)
    | other -> (
        match int_of_string_opt other with
        | Some hi when hi > 0 -> Verify.Generator.Custom (-hi, hi)
        | _ -> failwith "range must be wide | narrow | tight | <positive int>")
  in
  let variant =
    match impl with
    | "correct" -> Recoverable.Rcas.Correct
    | "buggy" -> Recoverable.Rcas.Buggy
    | _ -> failwith "impl must be correct | buggy"
  in
  let crash_mode =
    match crash_every with
    | Some n -> Experiment.Every_ops n
    | None ->
        if crash_prob > 0. then Experiment.Random_ops crash_prob
        else Experiment.No_crashes
  in
  let stack_kind =
    match Fuzz.Workload.stack_of_string stack with
    | Ok kind -> kind
    | Error msg -> failwith msg
  in
  let non_serializable = ref 0 in
  for s = seed to seed + seeds - 1 do
    let outcome =
      Experiment.run
        {
          Experiment.n_ops = ops;
          range;
          seed = s;
          workers;
          variant;
          crash_mode;
          stack_kind;
        }
    in
    Format.printf "seed %3d: %a@." s Experiment.pp_outcome outcome;
    match outcome.Experiment.verdict with
    | Verify.Serializability.Serializable _ -> ()
    | Verify.Serializability.Not_serializable _ -> incr non_serializable
  done;
  Format.printf "@.%d/%d executions serializable, %d flagged@."
    (seeds - !non_serializable) seeds !non_serializable;
  (* exit code distinguishes the two expected outcomes for scripting *)
  if !non_serializable > 0 then exit 3

open Cmdliner

let ops =
  Arg.(value & opt int 64 & info [ "ops" ] ~docv:"N" ~doc:"Number of CAS operations.")

let range =
  Arg.(
    value
    & opt string "narrow"
    & info [ "range" ] ~docv:"RANGE"
        ~doc:
          "Operand range: $(b,wide) ([-100000,100000]), $(b,narrow) \
           ([-10,10]), $(b,tight) ({0,1}) or a positive integer $(i,k) for \
           [-k,k].")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"First random seed.")

let seeds =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"K" ~doc:"Number of consecutive seeds to run.")

let workers =
  Arg.(value & opt int 4 & info [ "workers" ] ~docv:"W" ~doc:"Workers.")

let impl =
  Arg.(
    value
    & opt string "correct"
    & info [ "impl" ] ~docv:"IMPL"
        ~doc:
          "CAS implementation: $(b,correct) (with the announcement matrix) \
           or $(b,buggy) (matrix removed, the planted bug of Section 5.2).")

let crash_prob =
  Arg.(
    value
    & opt float 0.005
    & info [ "crash-prob" ] ~docv:"P"
        ~doc:"Per-operation crash probability (0 disables random crashes).")

let crash_every =
  Arg.(
    value
    & opt (some int) None
    & info [ "crash-every" ] ~docv:"OPS"
        ~doc:"Crash deterministically every OPS device operations instead.")

let stack =
  Arg.(
    value
    & opt string "bounded"
    & info [ "stack" ] ~docv:"KIND"
        ~doc:"Stack implementation: bounded | resizable | linked.")

let cmd =
  Cmd.v
    (Cmd.info "cas_experiment" ~doc:"Run the Section 5.2 CAS experiment.")
    Term.(
      const run $ ops $ range $ seed $ seeds $ workers $ impl $ crash_prob
      $ crash_every $ stack)

let () = exit (Cmd.eval cmd)
