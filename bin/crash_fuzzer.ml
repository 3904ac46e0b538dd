(* Crash-schedule fuzzer CLI.

   Default mode runs a deterministic campaign: [--seed S --runs N] draws N
   independent cases (workload + crash schedule) from S, executes each
   under the crash-restart driver, checks recovery invariants, and shrinks
   any failure to a minimal reproducer written under [--out].  The printed
   trace depends only on the seed and flags, never on thread interleaving,
   so two invocations with the same arguments produce identical output.

   [--replay FILE] re-runs a previously written reproducer exactly and
   exits 0/1 on pass/fail — replaying the artifact of a since-fixed bug is
   the CI-friendly regression check.

   [--kinds faulty] targets the planted-bug counter workload, which fails
   under the right crash points by construction — the self-test that the
   search and the shrinker actually work. *)

module Fuzz = Fuzz

let parse_kinds raw =
  let names = String.split_on_char ',' raw |> List.filter (( <> ) "") in
  if names = [] then Error "no workload kinds given"
  else
    List.fold_left
      (fun acc name ->
        Result.bind acc (fun kinds ->
            Result.map
              (fun kind -> kind :: kinds)
              (Fuzz.Workload.kind_of_string (String.trim name))))
      (Ok []) names
    |> Result.map List.rev

let write_artifacts config out failures =
  if failures <> [] then begin
    (try Unix.mkdir out 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    List.iter
      (fun failure ->
        let stem =
          Filename.concat out
            (Printf.sprintf "repro-seed%d-case%d" config.Fuzz.Campaign.seed
               failure.Fuzz.Campaign.case)
        in
        let path = stem ^ ".txt" in
        Fuzz.Reproducer.write path
          (Fuzz.Campaign.reproducer_of_failure config failure);
        Printf.printf "wrote %s\n" path;
        (* Same trace tail, but in Chrome trace_event form: load it in
           chrome://tracing or Perfetto next to the textual reproducer. *)
        match failure.Fuzz.Campaign.trace with
        | [] -> ()
        | events ->
            let trace_path = stem ^ ".trace.json" in
            let oc = open_out trace_path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () ->
                output_string oc (Obs.Trace.chrome_json_of_events events));
            Printf.printf "wrote %s\n" trace_path)
      failures
  end

let run_campaign seed runs kinds max_ops max_workers max_eras shrink_attempts
    out quiet faults sabotage =
  match parse_kinds kinds with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok kinds ->
      let config =
        {
          Fuzz.Campaign.seed;
          runs;
          kinds;
          max_ops;
          max_workers;
          max_eras;
          shrink_attempts;
          faults;
          sabotage;
        }
      in
      let log line = if not quiet then print_endline line in
      let report = Fuzz.Campaign.run ~log config in
      write_artifacts config out report.Fuzz.Campaign.failures;
      let n_failures = List.length report.Fuzz.Campaign.failures in
      if faults then
        Printf.printf "%d cases, %d failures, %d loud fatals\n"
          report.Fuzz.Campaign.cases n_failures report.Fuzz.Campaign.fatals
      else
        Printf.printf "%d cases, %d failures\n" report.Fuzz.Campaign.cases
          n_failures;
      if n_failures = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Server scenario class: whole-process crash-kill-recover schedules    *)
(* against bin/nvkv_server, checked by the Net.Harness oracle.  Same    *)
(* campaign contract as the in-process workloads — seeded cases, greedy *)
(* shrink, replayable reproducer artifacts — but each case spawns and   *)
(* SIGKILLs real server processes.                                      *)
(* ------------------------------------------------------------------ *)

let gen_server_spec ~seed ~case =
  let rng = Random.State.make [| 0x5e4; seed; case |] in
  let nclients = 1 + Random.State.int rng 3 in
  let nreqs = 4 + Random.State.int rng 13 in
  let op () =
    let key () = Random.State.int rng 8 in
    match Random.State.int rng 100 with
    | n when n < 30 -> Net.Wire.Put (key (), Random.State.int rng 1000)
    | n when n < 50 -> Net.Wire.Get (key ())
    | n when n < 65 -> Net.Wire.Del (key ())
    | n when n < 85 -> Net.Wire.Enqueue (Random.State.int rng 1000)
    | _ -> Net.Wire.Dequeue
  in
  let reqs =
    List.init nreqs (fun _ -> (Random.State.int rng nclients, op ()))
  in
  let kill_from =
    if Random.State.int rng 100 < 20 then `Startup else `Ready
  in
  let kill_at =
    match kill_from with
    | `Startup -> 1 + Random.State.int rng 40
    | `Ready -> 1 + Random.State.int rng 120
  in
  (* Drawn last, so every case keeps the schedule it drew before the flush
     mode was part of a spec. *)
  let flush = if Random.State.bool rng then `Coalesced else `Eager in
  { Net.Harness.seed; case; kill_at; kill_from; flush; reqs }

(* Greedy shrink under a global attempt budget: drop one request at a
   time, then pull the kill point earlier.  Every candidate re-runs the
   full oracle, so a kept candidate still fails for real. *)
let shrink_server_spec ~attempts spec =
  let tries = ref 0 in
  let still_fails candidate =
    !tries < attempts
    && begin
         incr tries;
         match Net.Harness.run_spec candidate with
         | Error _ -> true
         | Ok _ -> false
       end
  in
  let drop i l = List.filteri (fun j _ -> j <> i) l in
  let rec improve spec =
    let candidates =
      List.mapi
        (fun i _ -> { spec with Net.Harness.reqs = drop i spec.Net.Harness.reqs })
        spec.Net.Harness.reqs
      @ (if spec.Net.Harness.kill_at > 1 then
           [
             { spec with Net.Harness.kill_at = spec.Net.Harness.kill_at / 2 };
             { spec with Net.Harness.kill_at = spec.Net.Harness.kill_at - 1 };
           ]
         else [])
    in
    match List.find_opt still_fails candidates with
    | Some better -> improve better
    | None -> spec
  in
  improve spec

let run_server_campaign seed runs shrink_attempts out quiet =
  let failures = ref [] in
  for case = 0 to runs - 1 do
    let spec = gen_server_spec ~seed ~case in
    if not quiet then
      Printf.printf "case %d: %d req(s), %d client(s), kill %d (%s), %s\n%!"
        case
        (List.length spec.Net.Harness.reqs)
        (1
        + List.fold_left
            (fun acc (c, _) -> max acc c)
            0 spec.Net.Harness.reqs)
        spec.Net.Harness.kill_at
        (match spec.Net.Harness.kill_from with
        | `Ready -> "ready"
        | `Startup -> "startup")
        (match spec.Net.Harness.flush with
        | `Eager -> "eager"
        | `Coalesced -> "coalesced");
    match Net.Harness.run_spec spec with
    | Ok _ -> ()
    | Error msg ->
        Printf.printf "case %d FAILED: %s\n%!" case msg;
        let minimal = shrink_server_spec ~attempts:shrink_attempts spec in
        failures := (minimal, msg) :: !failures
  done;
  let failures = List.rev !failures in
  if failures <> [] then begin
    (try Unix.mkdir out 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    List.iter
      (fun (spec, _msg) ->
        let path =
          Filename.concat out
            (Printf.sprintf "server-seed%d-case%d.txt" spec.Net.Harness.seed
               spec.Net.Harness.case)
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Net.Harness.spec_to_string spec));
        Printf.printf "wrote %s\n" path)
      failures
  end;
  Printf.printf "%d cases, %d failures\n" runs (List.length failures);
  if failures = [] then 0 else 1

let run_server_replay text =
  match Net.Harness.spec_of_string text with
  | Error msg ->
      Printf.eprintf "error: bad server reproducer: %s\n" msg;
      2
  | Ok spec -> (
      print_string (Net.Harness.spec_to_string spec);
      match Net.Harness.run_spec ~verbose:true spec with
      | Ok { Net.Harness.restarts } ->
          Printf.printf "verdict: pass (%d restart(s))\n" restarts;
          0
      | Error msg ->
          Printf.printf "verdict: FAIL: %s\n" msg;
          1)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_workload_replay path =
  match Fuzz.Reproducer.read path with
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      2
  | Ok repro -> (
      Format.printf "replaying %a | %a@." Fuzz.Workload.pp
        repro.Fuzz.Reproducer.workload Fuzz.Schedule.pp
        repro.Fuzz.Reproducer.schedule;
      (match repro.Fuzz.Reproducer.expected with
      | Some msg -> Printf.printf "expected failure: %s\n" msg
      | None -> ());
      match Fuzz.Reproducer.replay repro with
      | { Fuzz.Harness.verdict = Fuzz.Harness.Pass; _ } ->
          print_endline "verdict: pass";
          0
      | { Fuzz.Harness.verdict = Fuzz.Harness.Fatal msg; _ }
        when Fuzz.Schedule.has_faults repro.Fuzz.Reproducer.schedule ->
          (* Same contract as the campaign: under armed media faults a
             loud refusal to recover is an acceptable outcome. *)
          Printf.printf "verdict: fatal (faulted schedule): %s\n" msg;
          0
      | { Fuzz.Harness.verdict = Fuzz.Harness.Fail msg; _ } ->
          Printf.printf "verdict: FAIL: %s\n" msg;
          1
      | { Fuzz.Harness.verdict = Fuzz.Harness.Fatal msg; _ } ->
          Printf.printf "verdict: FATAL: %s\n" msg;
          1)

let run_replay path =
  (* Server reproducers and workload reproducers share the --replay door;
     the header line tells them apart. *)
  match read_file path with
  | text when Net.Harness.is_spec text -> run_server_replay text
  | _ -> run_workload_replay path
  | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      2

open Cmdliner

let main_term =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let runs = Arg.(value & opt int 50 & info [ "runs" ] ~docv:"N") in
  let kinds =
    Arg.(
      value
      & opt string "rstack,rqueue,rmap,rcas,rcounter"
      & info [ "kinds" ] ~docv:"K1,K2"
          ~doc:"Comma-separated workload kinds (rstack, rqueue, rmap, rcas, \
                rcounter, faulty).")
  in
  let max_ops = Arg.(value & opt int 48 & info [ "max-ops" ] ~docv:"N") in
  let max_workers =
    Arg.(value & opt int 4 & info [ "max-workers" ] ~docv:"W")
  in
  let max_eras = Arg.(value & opt int 4 & info [ "max-eras" ] ~docv:"E") in
  let shrink_attempts =
    Arg.(value & opt int 150 & info [ "shrink-attempts" ] ~docv:"N")
  in
  let out =
    Arg.(
      value & opt string "fuzz-artifacts"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for failing-case reproducer artifacts.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ]) in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:"Inject media faults: generated schedules may tear the \
                crash-interrupted cache line and flip bits in checksummed \
                metadata between eras.  The oracle becomes \
                no-silent-corruption: wrong answers still fail, loud \
                unrecoverable refusals are tolerated and counted.")
  in
  let sabotage =
    Arg.(
      value & flag
      & info [ "sabotage" ]
          ~doc:"Self-check: disable checksum verification for the whole \
                campaign.  A --faults campaign run this way must produce \
                failures; exit status inverts accordingly (0 iff the \
                sabotage was caught).")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run a reproducer artifact instead of fuzzing.  Server \
                reproducers (header 'server-repro v1') replay through the \
                process-level harness automatically.")
  in
  let server =
    Arg.(
      value & flag
      & info [ "server" ]
          ~doc:"Fuzz whole-process crash-kill-recover schedules against \
                bin/nvkv_server instead of the in-process workloads: each \
                case drives a seeded request schedule over a Unix socket, \
                SIGKILLs the server at a deterministic persistence point, \
                restarts it, and checks exactly-once delivery plus the map \
                and queue oracles.  Honours --seed, --runs, \
                --shrink-attempts, --out, --quiet.")
  in
  let run replay server seed runs kinds max_ops max_workers max_eras
      shrink_attempts out quiet faults sabotage =
    Stdlib.exit
      (match replay with
      | Some path -> run_replay path
      | None when server ->
          run_server_campaign seed runs shrink_attempts out quiet
      | None ->
          let status =
            run_campaign seed runs kinds max_ops max_workers max_eras
              shrink_attempts out quiet faults sabotage
          in
          if sabotage && status <> 2 then begin
            (* The sabotage leg passes exactly when the campaign caught the
               disabled checksums. *)
            if status = 1 then begin
              print_endline "sabotage caught: checksum oracle has teeth";
              0
            end
            else begin
              print_endline
                "SABOTAGE MISSED: campaign stayed green with checksum \
                 verification disabled";
              1
            end
          end
          else status)
  in
  Term.(
    const run $ replay $ server $ seed $ runs $ kinds $ max_ops $ max_workers
    $ max_eras $ shrink_attempts $ out $ quiet $ faults $ sabotage)

let () =
  let doc =
    "Deterministic crash-schedule fuzzer for the recoverable structures."
  in
  Stdlib.exit (Cmd.eval' (Cmd.v (Cmd.info "crash_fuzzer" ~doc) main_term))
