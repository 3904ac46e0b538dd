type t = {
  seed : int option;
  case : int option;
  workload : Workload.t;
  schedule : Schedule.t;
  expected : string option;
  trace : Obs.Trace.event list;
}

(* The trace tail rides along as [#] comment lines: [of_lines] strips
   comments before parsing, so old and new readers replay the artifact
   identically whether or not a trace is attached. *)
let trace_lines = function
  | [] -> []
  | events ->
      "# trace tail (oldest first):"
      :: List.map
           (fun e -> Format.asprintf "#   %a" Obs.Trace.pp_event e)
           events

let to_lines t =
  [ "# crash_fuzzer reproducer" ]
  @ (match t.seed with
    | Some seed -> [ Printf.sprintf "seed %d" seed ]
    | None -> [])
  @ (match t.case with
    | Some case -> [ Printf.sprintf "case %d" case ]
    | None -> [])
  @ Workload.to_lines t.workload @ Schedule.to_lines t.schedule
  @ (match t.expected with
    | Some msg -> [ Printf.sprintf "fail %s" msg ]
    | None -> [])
  @ trace_lines t.trace

let of_lines lines =
  let ( let* ) = Result.bind in
  let strip line =
    match String.index_opt line '#' with
    | Some i -> String.trim (String.sub line 0 i)
    | None -> String.trim line
  in
  let lines = List.filter (( <> ) "") (List.map strip lines) in
  let meta_int what raw =
    match int_of_string_opt raw with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s is not an integer: %S" what raw)
  in
  let* seed, case, expected, workload_lines, schedule_lines =
    List.fold_left
      (fun acc line ->
        let* seed, case, expected, wl, sl = acc in
        match String.split_on_char ' ' line with
        | "seed" :: raw :: [] ->
            let* seed = meta_int "seed" raw in
            Ok (Some seed, case, expected, wl, sl)
        | "case" :: raw :: [] ->
            let* case = meta_int "case" raw in
            Ok (seed, Some case, expected, wl, sl)
        | "fail" :: rest ->
            Ok (seed, case, Some (String.concat " " rest), wl, sl)
        | ("kind" | "workers" | "init" | "stack" | "op") :: _ ->
            Ok (seed, case, expected, line :: wl, sl)
        | ("era" | "kill" | "interleave" | "preempt" | "por" | "reversal"
          | "tear" | "bitflip" | "fault-seed")
          :: _ ->
            Ok (seed, case, expected, wl, line :: sl)
        | _ -> Error (Printf.sprintf "unknown reproducer entry %S" line))
      (Ok (None, None, None, [], []))
      lines
  in
  let* workload = Workload.of_lines (List.rev workload_lines) in
  let* schedule = Schedule.of_lines (List.rev schedule_lines) in
  Ok { seed; case; workload; schedule; expected; trace = [] }

let write path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter (fun line -> output_string oc (line ^ "\n")) (to_lines t))

let read path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let lines =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec go acc =
              match input_line ic with
              | line -> go (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            go [])
      in
      of_lines lines

let replay t = Harness.run t.workload t.schedule
