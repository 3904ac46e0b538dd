module Crash = Nvram.Crash
module Pmem = Nvram.Pmem
module Workload = Fuzz.Workload
module Schedule = Fuzz.Schedule
module Harness = Fuzz.Harness
module Reproducer = Fuzz.Reproducer
module Coop = Runtime.Coop

type config = {
  preempt_bound : int;
  max_executions : int;
  max_points : int;
  device_size : int;
  flush_mode : Pmem.flush_mode;
  broken_drain : bool;
  por : bool;
}

let default_config =
  {
    preempt_bound = 2;
    max_executions = 200_000;
    max_points = 10_000;
    (* Each execution formats a fresh device; keep it small.  128 KiB
       comfortably fits the superblock, a handful of 4 KiB worker stacks,
       the task table and the structures of every workload kind. *)
    device_size = 1 lsl 17;
    flush_mode = Pmem.Eager;
    broken_drain = false;
    por = true;
  }

type stats = {
  executions : int;
  points : int;
  crash_placements : int;
  deepest : int;
  races : int;
  sleep_skips : int;
}

type violation = {
  reason : string;
  schedule : Schedule.t;
  outcome : Harness.outcome;
}

type verdict =
  | Certified of stats
  | Violation of violation * stats
  | Budget_exhausted of stats

(* The trace-property monitors around one harness execution: [props]
   instantiated afresh, fed footprint [Access] events at each decision (the
   op the chosen worker executes on resume), crash events from the harness
   observer, and invocation/response/recovery events from the runtime probe
   — all synchronous on the single cooperative thread, so stream order is
   execution order.  Returns the outcome and the first monitor violation. *)
let monitored ~config ~props ~prop_sabotage ?decide workload schedule =
  let checker =
    if props = [] then None else Some (Prop.run ~sabotage:prop_sabotage props)
  in
  let emit ev = match checker with None -> () | Some c -> c.Prop.feed ev in
  let observer = function
    | Harness.Decision (p, Coop.Run j) -> (
        match List.assoc_opt j p.Coop.pending with
        (* Synthetic scheduler-only accesses (negative lines: work-queue
           pops) exist for the reduction, not for the monitors. *)
        | Some access when access.Crash.first_line >= 0 ->
            emit (Prop.Access { worker = j; access })
        | Some _ | None -> ())
    | Harness.Driver (Runtime.Driver.Crash_fired { era; _ }) ->
        emit (Prop.Crashed { era })
    | Harness.Decision (_, Coop.Crash_here) | Harness.Driver _ -> ()
  in
  let run () =
    Harness.run ?decide ~device_size:config.device_size
      ~flush_mode:config.flush_mode ~break_drain:config.broken_drain ~observer
      workload schedule
  in
  match checker with
  | None -> (run (), None)
  | Some c ->
      Runtime.Exec.set_probe
        (Some
           (function
           | Runtime.Exec.Op_invoked { worker; func_id } ->
               emit (Prop.Invoked { worker; func_id })
           | Runtime.Exec.Op_responded { worker; func_id } ->
               emit (Prop.Responded { worker; func_id })
           | Runtime.Exec.Recovery_pass { worker; frames } ->
               emit (Prop.Recovery { worker; frames })));
      let outcome =
        Fun.protect ~finally:(fun () -> Runtime.Exec.set_probe None) run
      in
      (outcome, c.Prop.result ())

(* One stateless execution: follow [prefix] decision by decision, then
   extend with the non-preempting default policy, recording every
   pre-crash decision.  Executions are deterministic (single thread, no
   RNG), so re-running a prefix reproduces its parent's decisions exactly —
   the standard stateless-DFS invariant.

   A trace longer than [max_points] sets [exhausted] instead of raising:
   an exception here would unwind through the harness's generic handler
   and come back as a spurious [Fail] verdict — the checker must report
   [Budget_exhausted], not crash or cry wolf (the bug this fixes). *)
let run_execution ~config ~workload ?(props = []) ?(prop_sabotage = false)
    prefix =
  let trace = ref [] in
  let n = ref 0 in
  let crash_injected = ref false in
  let exhausted = ref false in
  let decide p =
    if !crash_injected || !exhausted then Coop.default_decision p
    else if !n >= config.max_points then begin
      exhausted := true;
      Coop.default_decision p
    end
    else begin
      let d =
        if !n < Array.length prefix then
          match prefix.(!n) with
          | Coop.Run j when not (List.mem j p.Coop.enabled) ->
              (* Deterministic re-execution should make this impossible;
                 degrade to the default rather than wedge the run. *)
              Coop.default_decision p
          | d -> d
        else Coop.default_decision p
      in
      trace := (p, d) :: !trace;
      incr n;
      (match d with Coop.Crash_here -> crash_injected := true | _ -> ());
      d
    end
  in
  let outcome, prop_failure =
    monitored ~config ~props ~prop_sabotage
      ~decide:(fun () -> decide)
      workload Schedule.none
  in
  (Array.of_list (List.rev !trace), outcome, !exhausted, prop_failure)

let is_preemption (p : Coop.point) j =
  match p.current with
  | Some c -> c <> j && List.mem c p.enabled
  | None -> false

let schedule_of_trace ~config trace =
  let decisions = Array.map snd trace in
  let interleave =
    Array.to_list decisions
    |> List.filter_map (function
         | Coop.Run j -> Some j
         | Coop.Crash_here -> None)
  in
  let eras =
    if Array.length trace = 0 then []
    else
      let p, d = trace.(Array.length trace - 1) in
      match d with
      | Coop.Crash_here -> [ Crash.At_op (p.Coop.op + 1) ]
      | Coop.Run _ -> []
  in
  {
    Schedule.none with
    Schedule.eras;
    interleave;
    preempt = Some config.preempt_bound;
    por = config.por;
  }

(* Verdict of one terminal state, in severity order: the harness's own
   oracles first (a [Fail]/[Fatal] is a finding whatever else happened),
   then the along-the-path property monitors, then the user check. *)
let failure_of ~check outcome prop_failure =
  match outcome.Harness.verdict with
  | Harness.Fail msg -> Some msg
  | Harness.Fatal msg ->
      (* The model checker injects no media faults, so an unrecoverable
         image is always a finding. *)
      Some ("fatal: " ^ msg)
  | Harness.Pass -> (
      match prop_failure with
      | Some (prop, msg) -> Some (Printf.sprintf "property %s: %s" prop msg)
      | None -> (
          match check outcome with Ok () -> None | Error msg -> Some msg))

(* ------------------------------------------------------------------ *)
(* Brute force: enumerate every interleaving within the preemption bound
   and every crash placement (CHESS-style iterative context bounding). *)

let explore_brute ~config ~check ~props ~prop_sabotage workload =
  let executions = ref 0 in
  let points = ref 0 in
  let crash_placements = ref 0 in
  let deepest = ref 0 in
  let stats () =
    {
      executions = !executions;
      points = !points;
      crash_placements = !crash_placements;
      deepest = !deepest;
      races = 0;
      sleep_skips = 0;
    }
  in
  let stack = Stack.create () in
  Stack.push [||] stack;
  let result = ref None in
  while Option.is_none !result && not (Stack.is_empty stack) do
    if !executions >= config.max_executions then
      result := Some (Budget_exhausted (stats ()))
    else begin
      let prefix = Stack.pop stack in
      let trace, outcome, exhausted, prop_failure =
        run_execution ~config ~workload ~props ~prop_sabotage prefix
      in
      incr executions;
      points := !points + Array.length trace;
      deepest := max !deepest (Array.length trace);
      if
        Array.length prefix > 0
        && prefix.(Array.length prefix - 1) = Coop.Crash_here
      then incr crash_placements;
      if exhausted then result := Some (Budget_exhausted (stats ()))
      else
        match failure_of ~check outcome prop_failure with
        | Some reason ->
            result :=
              Some
                (Violation
                   ( {
                       reason;
                       schedule = schedule_of_trace ~config trace;
                       outcome;
                     },
                     stats () ))
        | None ->
            (* Alternatives at every decision index not fixed by the prefix.
               A prefix ending in [Crash_here] records nothing beyond itself
               (post-crash scheduling is the deterministic default), so
               crashed vectors are leaves and each decision vector is
               explored exactly once. *)
            let decisions = Array.map snd trace in
            let preempts = ref 0 in
            Array.iteri
              (fun i (p, chosen) ->
                if i >= Array.length prefix then begin
                  (* Single-crash placement at this point. *)
                  Stack.push
                    (Array.append (Array.sub decisions 0 i)
                       [| Coop.Crash_here |])
                    stack;
                  (* Iterative context bounding: a switch away from a live
                     worker spends one preemption; crash placements and
                     forced switches are free. *)
                  List.iter
                    (fun j ->
                      let cost = if is_preemption p j then 1 else 0 in
                      if
                        chosen <> Coop.Run j
                        && !preempts + cost <= config.preempt_bound
                      then
                        Stack.push
                          (Array.append (Array.sub decisions 0 i)
                             [| Coop.Run j |])
                          stack)
                    p.Coop.enabled
                end;
                match chosen with
                | Coop.Run j -> if is_preemption p j then incr preempts
                | Coop.Crash_here -> ())
              trace
    end
  done;
  match !result with None -> Certified (stats ()) | Some verdict -> verdict

(* ------------------------------------------------------------------ *)
(* Dynamic partial-order reduction with sleep sets (Flanagan &
   Godefroid), bound-aware in the BPOR style (Coons, Musuvathi &
   McKinley): the DFS walks one representative per equivalence class of
   crash-free interleavings, reversing only transitions that actually
   raced, and places the single-crash leaf at every decision point of
   every walked trace. *)

type frame = {
  point : Coop.point;
  preempts_before : int;  (* preemptions spent strictly before this frame *)
  mutable chosen : int;
  mutable fp : Por.footprint;  (* of the executed transition *)
  mutable backtrack : int list;  (* race-reversing alternatives to run *)
  mutable done_ : int list;  (* workers whose subtree here is complete *)
  mutable sleep : (int * Por.footprint) list;
  mutable reversed : bool;  (* [chosen] came from a backtrack *)
}

let explore_dpor ~config ~check ~props ~prop_sabotage workload =
  let executions = ref 0 in
  let points = ref 0 in
  let crash_placements = ref 0 in
  let deepest = ref 0 in
  let races = ref 0 in
  let sleep_skips = ref 0 in
  let stats () =
    {
      executions = !executions;
      points = !points;
      crash_placements = !crash_placements;
      deepest = !deepest;
      races = !races;
      sleep_skips = !sleep_skips;
    }
  in
  let frames : frame array ref = ref [||] in
  let result = ref None in
  let reversals upto =
    List.filteri (fun i _ -> i < upto) (Array.to_list !frames)
    |> List.mapi (fun i f -> (i, f.reversed))
    |> List.filter_map (fun (i, r) -> if r then Some i else None)
  in
  let with_por_metadata upto schedule =
    { schedule with Schedule.reversals = reversals upto }
  in
  (* Run one execution, account for it, and check its terminal state.
     Returns the trace on success, [None] once [result] is set. *)
  let execute ?(crash_leaf = false) prefix =
    if !executions >= config.max_executions then begin
      result := Some (Budget_exhausted (stats ()));
      None
    end
    else begin
      let trace, outcome, exhausted, prop_failure =
        run_execution ~config ~workload ~props ~prop_sabotage prefix
      in
      incr executions;
      points := !points + Array.length trace;
      deepest := max !deepest (Array.length trace);
      if crash_leaf then incr crash_placements;
      if exhausted then begin
        result := Some (Budget_exhausted (stats ()));
        None
      end
      else
        match failure_of ~check outcome prop_failure with
        | Some reason ->
            let upto =
              if crash_leaf then Array.length trace - 1
              else Array.length trace
            in
            result :=
              Some
                (Violation
                   ( {
                       reason;
                       schedule =
                         with_por_metadata upto
                           (schedule_of_trace ~config trace);
                       outcome;
                     },
                     stats () ));
            None
        | None -> Some trace
    end
  in
  let prefix_to b extra =
    Array.init (b + 1) (fun k ->
        if k < b then Coop.Run (!frames).(k).chosen else extra)
  in
  (* Crash leaf: the state before frame [i]'s transition, crashed.  The
     prefix does not depend on what [i] chooses, so one leaf per frame. *)
  let crash_leaf i = ignore (execute ~crash_leaf:true (prefix_to i Coop.Crash_here)) in
  (* Record the race-reversing alternative [w] at frame [j], unless the
     subtree already covers it (chosen/done/queued) or the sleep set
     proves it redundant.  If scheduling [w] at [j] would blow the
     preemption budget, re-seed it at the latest earlier point where the
     switch is free (BPOR's conservative addition) so bounding stays
     sound. *)
  let rec add_backtrack j w =
    let f = (!frames).(j) in
    if List.mem w f.point.Coop.enabled then begin
      let cost = if is_preemption f.point w then 1 else 0 in
      if f.preempts_before + cost <= config.preempt_bound then begin
        if
          w <> f.chosen
          && (not (List.mem w f.done_))
          && not (List.mem w f.backtrack)
        then begin
          if List.exists (fun (sw, _) -> sw = w) f.sleep then
            incr sleep_skips
          else begin
            f.backtrack <- w :: f.backtrack;
            incr races
          end
        end
      end
      else begin
        (* Find the latest k <= j where running [w] costs no preemption:
           nothing chosen yet, [w] itself was current, or the current
           worker had finished. *)
        let k = ref (j - 1) in
        let free k =
          let p = (!frames).(k).point in
          match p.Coop.current with
          | None -> true
          | Some c -> c = w || not (List.mem c p.Coop.enabled)
        in
        while !k >= 0 && not (free !k) do
          decr k
        done;
        if !k >= 0 && !k < j then add_backtrack !k w
      end
    end
  in
  (* Sync the frame array with a fresh trace: frame [b] (the re-chosen
     one, -1 initially) gets its real footprint (head access + the reads
     the step performed, visible as the next point's [prev_reads]); new
     frames are created for the fresh suffix, inheriting the parent's
     sleep set filtered down to entries still independent of the parent's
     transition.  The final transition of a trace has no successor point
     to report its reads, so it conservatively reads everything. *)
  let sync_frames trace b =
    let len = Array.length trace in
    let fp_at i chosen =
      let p, _ = trace.(i) in
      let access = List.assoc_opt chosen p.Coop.pending in
      let reads =
        if i + 1 < len then (fst trace.(i + 1)).Coop.prev_reads
        else Por.universe
      in
      { Por.access; reads }
    in
    if b >= 0 then begin
      let f = (!frames).(b) in
      f.fp <- fp_at b f.chosen
    end;
    let fresh = ref [] in
    for i = max 0 (b + 1) to len - 1 do
      let p, d = trace.(i) in
      let chosen =
        match d with
        | Coop.Run j -> j
        | Coop.Crash_here ->
            (* Unreachable: DFS prefixes and the default policy never
               crash. *)
            invalid_arg "Explore.sync_frames: crash in a DFS trace"
      in
      let preempts_before, sleep =
        if i = 0 then (0, [])
        else
          let parent =
            if i - 1 <= b then (!frames).(i - 1)
            else List.hd !fresh (* previous fresh frame *)
          in
          let cost =
            if is_preemption parent.point parent.chosen then 1 else 0
          in
          let sleep =
            List.filter
              (fun (w, wfp) ->
                w <> parent.chosen && not (Por.dependent wfp parent.fp))
              parent.sleep
          in
          (parent.preempts_before + cost, sleep)
      in
      fresh :=
        {
          point = p;
          preempts_before;
          chosen;
          fp = fp_at i chosen;
          backtrack = [];
          done_ = [];
          sleep;
          reversed = false;
        }
        :: !fresh
    done;
    frames :=
      Array.append
        (Array.sub !frames 0 (min (b + 1) (Array.length !frames)))
        (Array.of_list (List.rev !fresh))
  in
  (* Race detection for every fresh transition [i]: the latest earlier
     transition of a different worker it does not commute with is a race;
     the reversal is scheduled at that point. *)
  let detect_races from =
    let fs = !frames in
    for i = max 0 from to Array.length fs - 1 do
      let rec scan j =
        if j >= 0 then
          if
            fs.(j).chosen <> fs.(i).chosen
            && Por.dependent fs.(j).fp fs.(i).fp
          then add_backtrack j fs.(i).chosen
          else scan (j - 1)
      in
      scan (i - 1)
    done
  in
  let process b trace =
    sync_frames trace b;
    (* Crash leaves for states reached for the first time; frame [b]'s
       leaf (if any) ran when the frame was created. *)
    let i = ref (max 0 (b + 1)) in
    while Option.is_none !result && !i < Array.length !frames do
      crash_leaf !i;
      incr i
    done;
    if Option.is_none !result then detect_races b
  in
  (* Initial walk: the default schedule end to end ([b = -1]: no frame to
     refresh, every frame is fresh). *)
  (match execute [||] with
  | Some trace -> process (-1) trace
  | None -> ());
  let rec next_branch () =
    (* Deepest frame with something left to try; everything above it is
       fully explored and its current subtree is complete. *)
    let fs = !frames in
    let b = ref (Array.length fs - 1) in
    while !b >= 0 && fs.(!b).backtrack = [] do
      decr b
    done;
    if !b < 0 then None
    else begin
      let f = fs.(!b) in
      f.sleep <- (f.chosen, f.fp) :: f.sleep;
      f.done_ <- f.chosen :: f.done_;
      match f.backtrack with
      | [] -> assert false
      | w :: rest ->
          f.backtrack <- rest;
          if List.exists (fun (sw, _) -> sw = w) f.sleep then begin
            (* Slept since it was queued: a completed sibling proved any
               [w]-subtree here redundant. *)
            incr sleep_skips;
            next_branch ()
          end
          else begin
            frames := Array.sub fs 0 (!b + 1);
            f.chosen <- w;
            f.reversed <- true;
            Some !b
          end
    end
  in
  let continue = ref true in
  while !continue && Option.is_none !result do
    match next_branch () with
    | None -> continue := false
    | Some b -> (
        match execute (prefix_to b (Coop.Run (!frames).(b).chosen)) with
        | Some trace -> process b trace
        | None -> ())
  done;
  match !result with None -> Certified (stats ()) | Some verdict -> verdict

let explore ?(config = default_config) ?(check = fun _ -> Ok ())
    ?(props = []) ?(prop_sabotage = false) workload =
  if config.por then explore_dpor ~config ~check ~props ~prop_sabotage workload
  else explore_brute ~config ~check ~props ~prop_sabotage workload

(* ------------------------------------------------------------------ *)

let replay_checked ?(config = default_config) ?(props = [])
    ?(prop_sabotage = false) (repro : Reproducer.t) =
  monitored ~config ~props ~prop_sabotage repro.Reproducer.workload
    repro.Reproducer.schedule

let reproducer ~workload (v : violation) =
  {
    Reproducer.seed = None;
    case = None;
    workload;
    schedule = v.schedule;
    expected = Some v.reason;
    trace = [];
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "%d executions (%d with a crash), %d decision points, deepest trace %d"
    s.executions s.crash_placements s.points s.deepest;
  if s.races > 0 || s.sleep_skips > 0 then
    Format.fprintf fmt ", %d race reversals, %d sleep-set skips" s.races
      s.sleep_skips

(* ------------------------------------------------------------------ *)

type equivalence_verdict =
  | Equivalent of { eager : stats; coalesced : stats; distinct_states : int }
  | Divergent of violation * stats
  | Equivalence_inconclusive of string

(* Two-phase exhaustive equivalence: phase 1 explores the workload on an
   eager device and collects the set of reachable recovery-outcome
   fingerprints; phase 2 re-explores on a coalescing device and demands
   every fingerprint it reaches be a member of phase 1's set.  Soundness
   note: subset (not equality) is the right relation — coalescing can only
   {e remove} persistence states (pending lines die at a crash that an
   eager flush would have persisted), and the removed states collapse onto
   other eager-reachable states, never onto new ones.  A broken coalescer
   surfaces either as a phase-2 oracle failure (stale data the workload
   notices) or as a fingerprint outside the eager set; both become
   [Divergent].

   Both phases walk the same decision tree whether reduced or brute: the
   scheduler's footprints and op numbering are identical in both flush
   modes (crash.mli, pmem.ml), so the DPOR races and sleeps resolve
   identically and the two phases stay state-for-state comparable. *)
let check_equivalence ?(config = default_config) ?(broken_drain = false)
    ?(props = []) workload =
  let eager_states = Hashtbl.create 64 in
  let record (o : Harness.outcome) =
    if o.Harness.fingerprint <> "" then
      Hashtbl.replace eager_states o.Harness.fingerprint ();
    Ok ()
  in
  let eager_config =
    { config with flush_mode = Pmem.Eager; broken_drain = false }
  in
  match explore ~config:eager_config ~check:record ~props workload with
  | Violation (v, _) ->
      Equivalence_inconclusive
        ("eager phase violates its own oracles: " ^ v.reason)
  | Budget_exhausted _ ->
      Equivalence_inconclusive "eager phase exhausted its execution budget"
  | Certified eager_stats -> (
      let member (o : Harness.outcome) =
        if
          o.Harness.fingerprint = ""
          || Hashtbl.mem eager_states o.Harness.fingerprint
        then Ok ()
        else
          Error
            (Printf.sprintf
               "coalesced recovery state %S is not reachable under eager \
                flushing"
               o.Harness.fingerprint)
      in
      let coalesced_config =
        { config with flush_mode = Pmem.Coalesced; broken_drain }
      in
      match explore ~config:coalesced_config ~check:member ~props workload with
      | Certified coalesced_stats ->
          Equivalent
            {
              eager = eager_stats;
              coalesced = coalesced_stats;
              distinct_states = Hashtbl.length eager_states;
            }
      | Violation (v, s) -> Divergent (v, s)
      | Budget_exhausted _ ->
          Equivalence_inconclusive
            "coalesced phase exhausted its execution budget")
