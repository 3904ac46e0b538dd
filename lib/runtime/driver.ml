module Pmem = Nvram.Pmem
module Crash = Nvram.Crash

let src = Logs.Src.create "pstack.driver" ~doc:"Crash-restart driver"

module Log = (val Logs.src_log src : Logs.LOG)

type report = {
  eras : int;
  crashes : int;
  results : (int * int64) list;
  recovery : Recovery_report.t;
}

type event =
  | Era_armed of { era : int; plan : Crash.plan }
  | Crash_fired of { era : int; at_op : int }
  | Recovery_repaired of { era : int; report : Recovery_report.t }

exception Unrecoverable of { reason : string; eras : int; crashes : int }

let () =
  Printexc.register_printer (function
    | Unrecoverable { reason; eras; crashes } ->
        Some
          (Printf.sprintf
             "Runtime.Driver.Unrecoverable { reason = %S; eras = %d; crashes \
              = %d }"
             reason eras crashes)
    | _ -> None)

let run_to_completion pmem ~registry ~config ~submit ?(init = fun _ -> ())
    ?(reattach = fun _ -> ()) ?(recovered = fun _ -> ()) ?reclaim
    ?(plan = fun ~era:_ -> Crash.Never) ?(observer = fun _ -> ())
    ?(max_crashes = 10_000) ?spawn () =
  let eras = ref 0 in
  let crashes = ref 0 in
  let repairs = ref [] (* reverse-chronological Recovery_report items *) in
  (* A restart reports repairs twice: at attach (headers, stack tails) and
     from the heap sweep that ends [System.recover] (quarantined arenas).
     Each batch is folded in when its step returns. *)
  let era_items = ref [] in
  let fold_repairs ~era =
    if !era_items <> [] then begin
      let report = Recovery_report.of_items (List.rev !era_items) in
      Log.info (fun m -> m "%s" (Recovery_report.to_string report));
      repairs := !era_items @ !repairs;
      era_items := [];
      observer (Recovery_repaired { era; report })
    end
  in
  let arm () =
    incr eras;
    Log.debug (fun m -> m "era %d armed" !eras);
    (* Era boundary = persist barrier: on a coalescing device every pending
       line is written back before the next crash plan arms, so an era
       starts from a fully-persisted image in both flush modes.  No-op on
       an eager device. *)
    Pmem.drain_all pmem;
    let era_plan = plan ~era:!eras in
    Crash.arm (Pmem.crash_ctl pmem) era_plan;
    Obs.Trace.record (Obs.Trace.Era_armed { era = !eras });
    observer (Era_armed { era = !eras; plan = era_plan })
  in
  let spawn =
    match spawn with
    | Some s -> s
    | None ->
        Coop.spawn ~crash_ctl:(Pmem.crash_ctl pmem)
          ~decide:(Coop.random_decision (Random.State.make [| 1 |]))
  in
  let sys = System.create pmem ~registry ~config in
  init sys;
  submit sys;
  (* One iteration per era: run (or finish recovering) the system; on a
     crash, reboot and recover; repeat until all tasks completed. *)
  (* The main thread's own device operations (task-table scans, the reclaim
     sweep) are also subject to the armed crash plan, so the whole era is
     guarded, not just the worker domains. *)
  let unrecoverable fmt =
    Printf.ksprintf
      (fun reason ->
        raise (Unrecoverable { reason; eras = !eras; crashes = !crashes }))
      fmt
  in
  (* A torn task completion is media damage no recovery can degrade
     around: reported as {!Unrecoverable}, like a corrupt stack base.  So
     is a stack that cannot grow because a recovery took heap arenas out
     of service: the quarantine surfacing, not an ordinary overflow. *)
  let guarded sys f =
    try f () with
    | Crash.Crash_now -> `Crashed
    | Task.Torn_completion i ->
        unrecoverable "task %d's completion fails its checksum (torn)" i
    | Pstack.Run.Overflow as exn -> (
        match Nvheap.Heap.quarantined_arenas (System.heap sys) with
        | [] -> raise exn
        | arenas ->
            unrecoverable
              "stack overflow: heap arena(s) %s quarantined by recovery"
              (String.concat ", " (List.map string_of_int arenas)))
  in
  let rec normal_mode sys =
    arm ();
    match guarded sys (fun () -> System.run ~spawn sys) with
    | `Completed ->
        Log.info (fun m ->
            m "workload completed: %d eras, %d crashes" !eras !crashes);
        Crash.arm (Pmem.crash_ctl pmem) Crash.Never;
        {
          eras = !eras;
          crashes = !crashes;
          results =
            List.filter_map
              (fun (i, answer) -> Option.map (fun a -> (i, a)) answer)
              (System.results sys);
          recovery = Recovery_report.of_items (List.rev !repairs);
        }
    | `Crashed -> restart ()
  and restart () =
    incr crashes;
    (* The operation counter is read before the reboot wipes it: its value
       is where the era's plan actually fired, which is what a replay needs
       to turn a probabilistic schedule into a deterministic one. *)
    let at_op = Crash.ops (Pmem.crash_ctl pmem) in
    if Obs.Config.enabled () then
      Obs.Trace.record (Obs.Trace.Crash_fired { era = !eras; at_op });
    Obs.Counters.incr Obs.Probe.counters Crashes_survived;
    observer (Crash_fired { era = !eras; at_op });
    Log.info (fun m -> m "crash %d: rebooting and recovering" !crashes);
    if !crashes > max_crashes then
      failwith "Driver.run_to_completion: crash budget exceeded";
    Pmem.crash pmem;
    Pmem.restart pmem;
    (* Detect-and-degrade recoveries surface their repairs here; damage the
       recovery paths cannot degrade around (a corrupt dummy frame, a
       rotten superblock) becomes a structured {!Unrecoverable} instead of
       an anonymous exception, so campaign oracles can tell "reported
       fatal" from "driver bug". *)
    let crashed_era = !eras in
    let sys =
      match
        System.attach ~report:(fun it -> era_items := it :: !era_items) pmem
          ~registry
      with
      | sys ->
          fold_repairs ~era:crashed_era;
          sys
      | exception Pstack.Repair.Corrupt_stack { stack; at; reason } ->
          unrecoverable "%s stack unrecoverable at %d: %s" stack
            (Nvram.Offset.to_int at) reason
      | exception Invalid_argument reason -> unrecoverable "%s" reason
    in
    reattach sys;
    arm ();
    let reclaim = Option.map (fun f () -> f sys) reclaim in
    let outcome = guarded sys (fun () -> System.recover ~spawn ?reclaim sys) in
    fold_repairs ~era:crashed_era;
    match outcome with
    | `Completed ->
        recovered sys;
        normal_mode sys
    | `Crashed -> restart ()
  in
  normal_mode sys
