(* nvbench: the benchmark of bin/nvkv_server.exe.

     nvbench run [--workload W]... [--seed S] [--seconds T] [--smoke] [--sabotage]
     nvbench trace [--workload W]... [--seed S] [--seconds T]
     nvbench compare A/*.json [B/*.json] [--bounds BENCHMARK.json] [--json OUT]
     nvbench --workload W --seed S --seconds T --trace 0|1

   The last form is one run of one workload: untraced (0) it prints the
   end-to-end metrics, traced (1) the per-layer ones.  Every form that runs
   the server prints each metric by name and unit, checks every answer,
   writes one result file per workload, and ends with one JSON line
   {"correct", "attempted", "failed", "metrics"}; it exits 1 when an answer
   was wrong. *)

open Nvbench_core

let read_first_line path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  with Sys_error _ | End_of_file -> "unknown"

(* The filesystem type holding [dir], from the longest matching mount. *)
let filesystem dir =
  let dir = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  let best = ref ("", "unknown") in
  (try
     let ic = open_in "/proc/mounts" in
     Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
         try
           while true do
             match String.split_on_char ' ' (input_line ic) with
             | _ :: mnt :: fs :: _ ->
                 let prefix = if mnt = "/" then "/" else mnt ^ "/" in
                 let under =
                   mnt = dir
                   || String.length dir >= String.length prefix
                      && String.sub dir 0 (String.length prefix) = prefix
                 in
                 if under && String.length mnt >= String.length (fst !best) then
                   best := (mnt, fs)
             | _ -> ()
           done
         with End_of_file -> ())
   with Sys_error _ -> ());
  snd !best

let env work =
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("kernel", Json.Str (read_first_line "/proc/sys/kernel/osrelease"));
      ("image_fs", Json.Str (filesystem work));
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Runner.metric) ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
             @
             match m.count with
             | Some n -> [ ("samples", Json.Num (float_of_int n)) ]
             | None -> []) ))
       ms)

let print_metrics ms =
  List.iter
    (fun (m : Runner.metric) ->
      Printf.printf "  %-26s %14.4f %-9s%s\n" m.name m.value m.unit_
        (match m.count with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
    ms

(* A run that has not ended after this long is stuck; exiting kills the
   server it started. *)
let watchdog_s = 170

let run_one ~traced (s : Runner.settings) w =
  ignore (Unix.alarm watchdog_s);
  let o = Runner.run ~traced s w in
  ignore (Unix.alarm 0);
  let mode = if traced then "trace" else "run" in
  Printf.printf "== %s seed %d (%s)\n" o.Runner.workload s.Runner.seed mode;
  print_metrics o.Runner.end_to_end;
  print_metrics o.Runner.per_layer;
  Printf.printf "  valid %b  correct %b  attempted %d  failed %d  checked %d  resent %d\n"
    o.Runner.valid o.Runner.correct o.Runner.attempted o.Runner.failed o.Runner.checked
    o.Runner.resent;
  Option.iter (Printf.printf "  WRONG: %s\n") o.Runner.error;
  let file =
    Filename.concat s.Runner.out
      (Printf.sprintf "%s-seed%d-%s.json" o.Runner.workload s.Runner.seed mode)
  in
  Json.to_file file
    (Json.Obj
       [
         ("workload", Json.Str o.Runner.workload);
         ("seed", Json.Num (float_of_int s.Runner.seed));
         ("mode", Json.Str mode);
         ("seconds", Json.Num s.Runner.seconds);
         ("smoke", Json.Bool s.Runner.smoke);
         ("valid", Json.Bool o.Runner.valid);
         ("correct", Json.Bool o.Runner.correct);
         ("attempted", Json.Num (float_of_int o.Runner.attempted));
         ("failed", Json.Num (float_of_int o.Runner.failed));
         ("checked", Json.Num (float_of_int o.Runner.checked));
         ("resent", Json.Num (float_of_int o.Runner.resent));
         ( "failed_frac",
           Json.Num
             (float_of_int o.Runner.failed
             /. float_of_int (max 1 o.Runner.attempted)) );
         ("env", env s.Runner.work);
         ( "samples",
           Json.Obj
             (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) o.Runner.samples) );
         ("end_to_end", metrics_json o.Runner.end_to_end);
         ( "series",
           Json.Obj
             (List.map
                (fun (k, vs) -> (k, Json.Arr (List.map (fun v -> Json.Num v) vs)))
                o.Runner.series) );
         ("per_layer", metrics_json o.Runner.per_layer);
         ("layers", Json.Obj o.Runner.layers);
       ]);
  Printf.printf "  wrote %s\n%!" file;
  o

(* Runs each workload and prints the closing JSON line.  One workload keeps
   its metric names; several are prefixed with the workload's name. *)
let run_all ~traced ~only_per_layer s workloads =
  mkdir_p s.Runner.work;
  mkdir_p s.Runner.out;
  let outcomes = List.map (run_one ~traced s) workloads in
  let prefix o name =
    match workloads with [ _ ] -> name | _ -> o.Runner.workload ^ "." ^ name
  in
  let metrics =
    List.concat_map
      (fun o ->
        let ms =
          if only_per_layer then o.Runner.per_layer
          else if traced then o.Runner.end_to_end @ o.Runner.per_layer
          else o.Runner.end_to_end
        in
        List.map (fun (m : Runner.metric) -> { m with name = prefix o m.name }) ms)
      outcomes
  in
  let correct = List.for_all (fun o -> o.Runner.correct) outcomes in
  let total f = Json.Num (float_of_int (List.fold_left (fun a o -> a + f o) 0 outcomes)) in
  let value (m : Runner.metric) =
    (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", total (fun o -> o.Runner.attempted));
            ("failed", total (fun o -> o.Runner.failed));
            ("metrics", Json.Obj (List.map value metrics));
          ]));
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let default_server () =
  (* _build/default/bench/nvbench/nvbench.exe -> _build/default/bin/ *)
  let dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.dirname (Filename.dirname dir)) "bin/nvkv_server.exe"

let workload_conv =
  let parse s =
    match Workload.find s with
    | Some w -> Ok w
    | None -> Error (`Msg ("unknown workload " ^ s))
  in
  Arg.conv (parse, fun fmt (w : Workload.t) -> Format.pp_print_string fmt w.name)

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input seed.")

let seconds =
  Arg.(
    value & opt float 20.
    & info [ "seconds" ] ~docv:"S"
        ~doc:"Measured time, split between the open loop and the closed quota.")

let server =
  Arg.(
    value
    & opt (some string) None
    & info [ "server" ] ~docv:"EXE" ~doc:"The nvkv_server.exe to drive.")

let work =
  Arg.(
    value & opt string ".nvbench/tmp"
    & info [ "work" ] ~docv:"DIR" ~doc:"Scratch directory for images and sockets.")

let out =
  Arg.(
    value & opt string ".nvbench/results"
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for result and trace files.")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ] ~doc:"All sizes and rates divided by 50; a few seconds.")

let sabotage =
  Arg.(
    value & flag
    & info [ "sabotage" ] ~doc:"Perturb one received answer: the run must fail.")

let settings =
  Term.(
    const (fun seed seconds smoke sabotage server work out ->
        {
          Runner.seed;
          seconds = (if smoke then 2. else seconds);
          smoke;
          sabotage;
          exe = Option.value server ~default:(default_server ());
          work;
          out;
        })
    $ seed $ seconds $ smoke $ sabotage $ server $ work $ out)

let workloads =
  Arg.(
    value & opt_all workload_conv []
    & info [ "workload" ] ~docv:"NAME"
        ~doc:"kv_read, kv_write, queue or restart (repeatable; default all).")

let run_cmd ~traced name doc =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun s ws ->
          run_all ~traced ~only_per_layer:false s (if ws = [] then Workload.all else ws))
      $ settings $ workloads)

let compare_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"RESULT.json") in
  let bounds =
    Arg.(value & opt string "BENCHMARK.json" & info [ "bounds" ] ~docv:"FILE")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"OUT"
           ~doc:"Write the first set's medians and quartiles here.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"medians, quartiles and regressions beyond the bounds")
    Term.(
      const (fun files bounds_file json ->
          (* spans files sit next to the results; they are not results *)
          let files =
            List.filter (fun f -> not (Filename.check_suffix f ".trace.json")) files
          in
          let summary, regressions = Compare.run ~bounds_file ~files in
          Option.iter
            (fun path ->
              let first = List.hd files in
              let env =
                Option.value ~default:Json.Null (Json.member "env" (Json.of_file first))
              in
              Json.to_file path
                (Json.Obj
                   [
                     ("files", Json.Num (float_of_int (List.length files)));
                     ("env", env);
                     ("workloads", summary);
                   ]))
            json;
          if regressions > 0 then 1 else 0)
      $ files $ bounds $ json)

(* One run of one workload: end-to-end metrics, or per-layer with --trace 1. *)
let one_run =
  let workload =
    Arg.(required & opt (some workload_conv) None & info [ "workload" ] ~docv:"NAME")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1")
  in
  Term.(
    const (fun s w traced -> run_all ~traced ~only_per_layer:traced s [ w ])
    $ settings $ workload $ trace)

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         Printf.eprintf "nvbench: run still going after %d s; giving up\n%!" watchdog_s;
         exit 3));
  (* Exiting through [exit] kills and reaps the servers the run started. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let info = Cmd.info "nvbench" ~doc:"benchmark of nvkv_server" in
  exit
    (Cmd.eval'
       (Cmd.group ~default:one_run info
          [
            run_cmd ~traced:false "run" "untraced run: end-to-end metrics";
            run_cmd ~traced:true "trace" "untraced run plus the traced in-process run";
            compare_cmd;
          ]))
