module Crash = Nvram.Crash

type result = {
  workload : Workload.t;
  schedule : Schedule.t;
  outcome : Harness.outcome;
  attempts : int;
}

(* Strictly decreasing under every candidate below, which makes the greedy
   fixpoint terminate on its own; a Random plan outweighs ANY At_op — not
   just the ones the generator draws — so concretising always shrinks
   (with a merely "large" weight, an At_op above it would make
   concretisation a size increase and the greedy loop would refuse the one
   step that turns the schedule replayable). *)
let plan_weight = function
  | Crash.Never -> 0
  | Crash.At_op n -> 1 + n
  | Crash.Random _ -> 1_000_000_000

let measure (w : Workload.t) (s : Schedule.t) =
  (List.length w.ops * 10_000)
  + (w.workers * 100)
  + List.fold_left (fun acc p -> acc + plan_weight p) 0 s.Schedule.eras
  + plan_weight s.Schedule.tear
  + plan_weight s.Schedule.bitflip
  (* The interleaving prefix is part of the case's size: without these
     terms, dropping a stale prefix would not register as a shrink and the
     minimal reproducer could carry an interleaving its own replay
     ignores. *)
  + List.length s.Schedule.interleave
  + (match s.Schedule.preempt with None -> 0 | Some _ -> 1)
  + List.length s.Schedule.reversals
  + (if s.Schedule.por then 1 else 0)
  + match s.kill with None -> 0 | Some p -> plan_weight p

let rec drop_trailing_never = function
  | [] -> []
  | plans -> (
      match List.rev plans with
      | Crash.Never :: rest -> drop_trailing_never (List.rev rest)
      | _ -> plans)

(* Pin every era plan to what [outcome] saw it do: an era that crashed
   gets the At_op point observed, any other gets Never (it ran out, or was
   never reached), and trailing Nevers go.  The rewritten schedule repeats
   the run exactly. *)
let concretize (s : Schedule.t) (outcome : Harness.outcome) =
  let eras =
    List.mapi
      (fun i _ ->
        match List.assoc_opt (i + 1) outcome.Harness.crash_points with
        | Some at_op -> Crash.At_op (max 1 at_op)
        | None -> Crash.Never)
      s.eras
    |> drop_trailing_never
  in
  if eras = s.eras then None else Some { s with Schedule.eras }

let remove_chunk ops ~start ~len =
  List.filteri (fun i _ -> i < start || i >= start + len) ops

let rec chunk_sizes n = if n >= 1 then n :: chunk_sizes (n / 2) else []

(* Op and worker candidates keep the interleaving prefix, so a failure
   that needs it can shrink; each candidate is re-run before it is
   accepted (see the interface). *)
let op_candidates (w : Workload.t) (s : Schedule.t) =
  let n = List.length w.ops in
  List.concat_map
    (fun size ->
      let rec starts at =
        if at >= n then []
        else
          (let ops = remove_chunk w.ops ~start:at ~len:size in
           if ops = [] then []
           else [ ({ w with Workload.ops }, s) ])
          @ starts (at + size)
      in
      starts 0)
    (chunk_sizes (n / 2))

let worker_candidates (w : Workload.t) (s : Schedule.t) =
  if w.workers <= 1 then []
  else
    [ ({ w with Workload.workers = 1 }, s) ]
    @ (if w.workers > 2 then [ ({ w with Workload.workers = w.workers - 1 }, s) ]
       else [])

let without_interleave (s : Schedule.t) =
  {
    s with
    Schedule.interleave = [];
    preempt = None;
    por = false;
    reversals = [];
  }

let schedule_candidates (w : Workload.t) (s : Schedule.t) =
  let kill_drop =
    match s.Schedule.kill with
    | Some _ -> [ (w, { s with Schedule.kill = None }) ]
    | None -> []
  in
  let kill_earlier =
    match s.Schedule.kill with
    | Some (Crash.At_op n) when n > 1 ->
        [ (w, { s with Schedule.kill = Some (Crash.At_op (n / 2)) }) ]
    | _ -> []
  in
  let era_drop =
    match s.eras with
    | [] -> []
    | eras ->
        let all_but_last = List.filteri (fun i _ -> i < List.length eras - 1) eras in
        [ (w, { s with Schedule.eras = drop_trailing_never all_but_last }) ]
  in
  let earlier =
    List.concat
      (List.mapi
         (fun i plan ->
           match plan with
           | Crash.At_op n when n > 1 ->
               let replace p =
                 { s with Schedule.eras = List.mapi (fun j q -> if i = j then p else q) s.eras }
               in
               (* Halving jumps fast; the single step walks the edge of a
                  failure window halving would overshoot. *)
               [ (w, replace (Crash.At_op (n / 2)));
                 (w, replace (Crash.At_op (n - 1))) ]
           | _ -> [])
         s.eras)
  in
  (* Fault plans shrink by dropping: a failure that survives without the
     tear (or the bit flip) was never about the media fault. *)
  let fault_drop =
    (if s.Schedule.tear <> Crash.Never then
       [ (w, { s with Schedule.tear = Crash.Never }) ]
     else [])
    @
    if s.Schedule.bitflip <> Crash.Never then
      [ (w, { s with Schedule.bitflip = Crash.Never }) ]
    else []
  in
  (* Does the failure need the specific interleaving at all?  If it still
     reproduces under the default policy, the prefix was noise. *)
  let interleave_drop =
    if s.Schedule.interleave = [] then []
    else [ (w, without_interleave s) ]
  in
  kill_drop @ era_drop @ earlier @ kill_earlier @ fault_drop
  @ interleave_drop

let candidates w s outcome =
  (match concretize s outcome with Some s' -> [ (w, s') ] | None -> [])
  @ op_candidates w s @ worker_candidates w s @ schedule_candidates w s

(* An accepted candidate keeps only the choices its run made: the
   recorded list replays the same run under the default policy, and it is
   never longer than the prefix the run followed. *)
let trim (s : Schedule.t) (o : Harness.outcome) =
  if s.Schedule.interleave = [] then s
  else if o.Harness.interleave = [] then without_interleave s
  else { s with Schedule.interleave = o.Harness.interleave }

let shrink ?(max_attempts = 150) ?sabotage workload schedule outcome =
  (match outcome.Harness.verdict with
  | Harness.Fail _ | Harness.Fatal _ -> ()
  | Harness.Pass -> invalid_arg "Shrink.shrink: outcome is a pass");
  let attempts = ref 0 in
  let budget () = !attempts < max_attempts in
  let try_candidate ~current (w, s) =
    if (not (budget ())) || measure w s >= current then None
    else begin
      incr attempts;
      match Harness.run ?sabotage w s with
      | { Harness.verdict = Harness.Fail _; _ } as o -> Some (w, trim s o, o)
      | { Harness.verdict = Harness.Fatal _; _ } as o
        when not (Schedule.has_faults s) ->
          (* A Fatal under armed faults is an acceptable loud failure, not
             a finding — accepting it would shrink the bug away. *)
          Some (w, trim s o, o)
      | _ -> None
    end
  in
  let rec fixpoint (w, s, o) =
    if not (budget ()) then (w, s, o)
    else
      let current = measure w s in
      match List.find_map (try_candidate ~current) (candidates w s o) with
      | Some smaller -> fixpoint smaller
      | None -> (w, s, o)
  in
  let workload, schedule, outcome = fixpoint (workload, schedule, outcome) in
  { workload; schedule; outcome; attempts = !attempts }
