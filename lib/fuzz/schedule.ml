module Crash = Nvram.Crash

type t = {
  eras : Crash.plan list;
  kill : Crash.plan option;
  interleave : int list;
  preempt : int option;
  por : bool;
  reversals : int list;
  tear : Crash.plan;
  bitflip : Crash.plan;
  fault_seed : int;
}

let none =
  {
    eras = [];
    kill = None;
    interleave = [];
    preempt = None;
    por = false;
    reversals = [];
    tear = Crash.Never;
    bitflip = Crash.Never;
    fault_seed = 0;
  }

let fault_plan t =
  { Crash.tear = t.tear; bitflip = t.bitflip; fault_seed = t.fault_seed }

let has_faults t = Crash.has_faults (fault_plan t)

let plan_for t ~era =
  match List.nth_opt t.eras (era - 1) with
  | Some plan -> plan
  | None -> Crash.Never

let generate ?(faults = false) ~rng ~max_eras () =
  let n = 1 + Random.State.int rng (max max_eras 1) in
  let era_plan () =
    if Random.State.bool rng then Crash.At_op (1 + Random.State.int rng 300)
    else
      Crash.Random
        {
          seed = 1 + Random.State.int rng 1_000_000;
          (* Quantised to the serialised %.6f precision, so generated
             schedules round-trip structurally through to_lines/of_lines. *)
          probability =
            float_of_int (2_000 + Random.State.int rng 20_000) /. 1_000_000.;
        }
  in
  let eras = List.init n (fun _ -> era_plan ()) in
  let kill =
    if Random.State.int rng 3 = 0 then
      Some (Crash.At_op (1 + Random.State.int rng 200))
    else None
  in
  (* Fault plans count different events than era plans: [tear] counts crash
     events (it decides whether the crash tears the in-flight line) and
     [bitflip] counts restarts — both small numbers within one case, so
     At_op points are drawn from the first few and Random probabilities are
     kept high enough to fire within a typical case. *)
  let tear, bitflip, fault_seed =
    if not faults then (Crash.Never, Crash.Never, 0)
    else
      let fault_plan () =
        match Random.State.int rng 3 with
        | 0 -> Crash.Never
        | 1 -> Crash.At_op (1 + Random.State.int rng 3)
        | _ ->
            Crash.Random
              {
                seed = 1 + Random.State.int rng 1_000_000;
                probability =
                  float_of_int (250_000 + Random.State.int rng 500_000)
                  /. 1_000_000.;
              }
      in
      let tear = fault_plan () in
      let bitflip = fault_plan () in
      let seed = 1 + Random.State.int rng 1_000_000 in
      (* Both plans can draw Never; the seed is then dead weight that
         would not serialise (to_lines emits fault lines only for live
         plans), so zero it to keep generated schedules round-tripping. *)
      let fault_seed =
        if tear = Crash.Never && bitflip = Crash.Never then 0 else seed
      in
      (tear, bitflip, fault_seed)
  in
  { none with eras; kill; tear; bitflip; fault_seed }

(* Worker ids of an interleave prefix, at most [chunk] per line so long
   systematic traces stay readable; consecutive [interleave] lines
   concatenate on parse. *)
let interleave_lines t =
  let chunk = 16 in
  let rec split = function
    | [] -> []
    | ws ->
        let taken = List.filteri (fun i _ -> i < chunk) ws in
        let rest = List.filteri (fun i _ -> i >= chunk) ws in
        Printf.sprintf "interleave %s"
          (String.concat " " (List.map string_of_int taken))
        :: split rest
  in
  split t.interleave

let to_lines t =
  List.mapi
    (fun i plan ->
      Printf.sprintf "era %d %s" (i + 1) (Crash.plan_to_string plan))
    t.eras
  @ (match t.kill with
    | None -> []
    | Some plan -> [ Printf.sprintf "kill %s" (Crash.plan_to_string plan) ])
  @ interleave_lines t
  @ (match t.preempt with
    | None -> []
    | Some n -> [ Printf.sprintf "preempt %d" n ])
  @ (if not t.por then [] else [ "por on" ])
  @ (match t.reversals with
    | [] -> []
    | rs ->
        [
          Printf.sprintf "reversal %s"
            (String.concat " " (List.map string_of_int rs));
        ])
  @ (if t.tear = Crash.Never then []
     else [ Printf.sprintf "tear %s" (Crash.plan_to_string t.tear) ])
  @ (if t.bitflip = Crash.Never then []
     else [ Printf.sprintf "bitflip %s" (Crash.plan_to_string t.bitflip) ])
  @
  if has_faults t then [ Printf.sprintf "fault-seed %d" t.fault_seed ] else []

let of_lines lines =
  let ( let* ) = Result.bind in
  let at lineno = Result.map_error (Printf.sprintf "line %d: %s" lineno) in
  let parse acc lineno line =
    let* t = acc in
    match
      String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "")
    with
    | [] -> Ok t
    | "era" :: n :: rest ->
        at lineno
          (let expect = List.length t.eras + 1 in
           match int_of_string_opt n with
           | Some n when n = expect ->
               let* plan = Crash.plan_of_string (String.concat " " rest) in
               Ok { t with eras = t.eras @ [ plan ] }
           | Some n ->
               Error
                 (Printf.sprintf "era %d out of order (expected era %d)" n
                    expect)
           | None ->
               Error (Printf.sprintf "era index is not an integer: %S" n))
    | "kill" :: rest ->
        at lineno
          (let* plan = Crash.plan_of_string (String.concat " " rest) in
           Ok { t with kill = Some plan })
    | "interleave" :: workers ->
        at lineno
          (let* ws =
             List.fold_left
               (fun acc w ->
                 let* ws = acc in
                 match int_of_string_opt w with
                 | Some n when n >= 0 -> Ok (n :: ws)
                 | Some n ->
                     Error
                       (Printf.sprintf "interleave: negative worker id %d" n)
                 | None ->
                     Error
                       (Printf.sprintf "interleave: not a worker id: %S" w))
               (Ok []) workers
           in
           Ok { t with interleave = t.interleave @ List.rev ws })
    | "preempt" :: rest ->
        at lineno
          (match rest with
          | [ n ] -> (
              match int_of_string_opt n with
              | Some n when n >= 0 -> Ok { t with preempt = Some n }
              | Some _ -> Error "preempt bound must be >= 0"
              | None ->
                  Error
                    (Printf.sprintf "preempt bound is not an integer: %S" n))
          | _ -> Error (Printf.sprintf "malformed preempt entry %S" line))
    | "por" :: rest ->
        at lineno
          (match rest with
          | [ "on" ] -> Ok { t with por = true }
          | [ "off" ] -> Ok { t with por = false }
          | _ -> Error (Printf.sprintf "malformed por entry %S" line))
    | "reversal" :: indices ->
        at lineno
          (let* rs =
             List.fold_left
               (fun acc i ->
                 let* rs = acc in
                 match int_of_string_opt i with
                 | Some n when n >= 0 -> Ok (n :: rs)
                 | Some n ->
                     Error
                       (Printf.sprintf "reversal: negative decision index %d"
                          n)
                 | None ->
                     Error
                       (Printf.sprintf "reversal: not a decision index: %S" i))
               (Ok []) indices
           in
           Ok { t with reversals = t.reversals @ List.rev rs })
    | "tear" :: rest ->
        at lineno
          (let* plan = Crash.plan_of_string (String.concat " " rest) in
           Ok { t with tear = plan })
    | "bitflip" :: rest ->
        at lineno
          (let* plan = Crash.plan_of_string (String.concat " " rest) in
           Ok { t with bitflip = plan })
    | [ "fault-seed"; n ] ->
        at lineno
          (match int_of_string_opt n with
          | Some n -> Ok { t with fault_seed = n }
          | None ->
              Error (Printf.sprintf "fault seed is not an integer: %S" n))
    | _ -> at lineno (Error (Printf.sprintf "unknown schedule entry %S" line))
  in
  let acc = ref (Ok none) in
  List.iteri (fun i line -> acc := parse !acc (i + 1) line) lines;
  !acc

let pp fmt t =
  Format.fprintf fmt "[%s] kill=%s"
    (String.concat "; " (List.map Crash.plan_to_string t.eras))
    (match t.kill with
    | None -> "never"
    | Some plan -> Crash.plan_to_string plan);
  (match t.interleave with
  | [] -> ()
  | ws ->
      Format.fprintf fmt " interleave=%s"
        (String.concat "," (List.map string_of_int ws)));
  (match t.preempt with
  | None -> ()
  | Some n -> Format.fprintf fmt " preempt=%d" n);
  if t.por then Format.fprintf fmt " por";
  (match t.reversals with
  | [] -> ()
  | rs ->
      Format.fprintf fmt " reversals=%s"
        (String.concat "," (List.map string_of_int rs)));
  if has_faults t then
    Format.fprintf fmt " faults={%a}" Crash.pp_fault_plan (fault_plan t)
