(* nvbench compare: per-workload medians and quartiles of run result files,
   and — given a second set — every end-to-end metric whose median moved
   past the bound BENCHMARK.json declares for it.

   Files are grouped by directory, in order of first appearance, so
   [nvbench compare parent/*.json change/*.json] compares two sets. *)

type bound = { better : string; bound : float }

let bounds path =
  if not (Sys.file_exists path) then []
  else
    Json.member "end_to_end" (Json.of_file path)
    |> Option.fold ~none:[] ~some:Json.to_list
    |> List.filter_map (fun m ->
           match
             ( Option.bind (Json.member "name" m) Json.to_str,
               Option.bind (Json.member "better" m) Json.to_str,
               Option.bind (Json.member "bound" m) Json.to_num )
           with
           | Some name, Some better, Some bound -> Some (name, { better; bound })
           | _ -> None)

(* (workload, section, metric) -> values, over a set of result files. *)
let collect files =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun file ->
      let j = Json.of_file file in
      let workload =
        Option.value ~default:"?" (Option.bind (Json.member "workload" j) Json.to_str)
      in
      List.iter
        (fun section ->
          match Json.member section j with
          | Some (Json.Obj metrics) ->
              List.iter
                (fun (name, m) ->
                  match Option.bind (Json.member "value" m) Json.to_num with
                  | Some v ->
                      let key = (workload, section, name) in
                      let unit_ =
                        Option.bind (Json.member "unit" m) Json.to_str
                        |> Option.value ~default:""
                      in
                      (match Hashtbl.find_opt tbl key with
                      | Some (u, vs) -> Hashtbl.replace tbl key (u, v :: vs)
                      | None ->
                          order := key :: !order;
                          Hashtbl.add tbl key (unit_, [ v ]))
                  | None -> ())
                metrics
          | _ -> ())
        [ "end_to_end"; "per_layer" ])
    files;
  (tbl, List.rev !order)

let quartiles = function
  | [ v ] -> (v, v, v)
  | vs -> Stats.quartiles vs

let groups files =
  let dirs = ref [] in
  List.iter
    (fun f ->
      let d = Filename.dirname f in
      if not (List.mem d !dirs) then dirs := d :: !dirs)
    files;
  List.rev_map (fun d -> List.filter (fun f -> Filename.dirname f = d) files) !dirs

(* Prints the table; returns the summary of the first set (as written by
   --json) and the number of regressions flagged. *)
let run ~bounds_file ~files =
  let bounds = bounds bounds_file in
  match groups files with
  | [] -> failwith "compare: no result files"
  | _ :: _ :: _ :: _ -> failwith "compare: give at most two directories of result files"
  | a :: rest ->
      let ta, order = collect a in
      let tb = match rest with [ b ] -> Some (fst (collect b)) | _ -> None in
      let regressions = ref 0 in
      Printf.printf "%-9s %-26s %12s %12s %12s %4s" "workload" "metric" "q1"
        "median" "q3" "n";
      if tb <> None then Printf.printf " %12s %9s" "B median" "change";
      print_newline ();
      let summary = Hashtbl.create 8 in
      List.iter
        (fun ((workload, section, name) as key) ->
          let unit_, vs = Hashtbl.find ta key in
          let q1, med, q3 = quartiles vs in
          Printf.printf "%-9s %-26s %12.4g %12.4g %12.4g %4d" workload name q1 med q3
            (List.length vs);
          (match Option.bind tb (fun tb -> Hashtbl.find_opt tb key) with
          | Some (_, vb) ->
              let _, mb, _ = quartiles vb in
              let change = if med = 0. then 0. else (mb -. med) /. Float.abs med in
              Printf.printf " %12.4g %+8.1f%%" mb (100. *. change);
              (match (section, List.assoc_opt name bounds) with
              | "end_to_end", Some b ->
                  let worse = if b.better = "lower" then change else -.change in
                  if worse > b.bound then begin
                    incr regressions;
                    Printf.printf "  WORSE beyond bound %.2f" b.bound
                  end
                  else if -.worse > b.bound then Printf.printf "  better beyond bound"
              | _ -> ())
          | None -> ());
          print_newline ();
          let entry =
            ( name,
              Json.Obj
                [
                  ("median", Json.Num med);
                  ("q1", Json.Num q1);
                  ("q3", Json.Num q3);
                  ("n", Json.Num (float_of_int (List.length vs)));
                  ("unit", Json.Str unit_);
                ] )
          in
          Hashtbl.replace summary workload
            (entry :: Option.value ~default:[] (Hashtbl.find_opt summary workload)))
        order;
      let workloads =
        List.sort_uniq compare (List.map (fun (w, _, _) -> w) order)
        |> List.map (fun w -> (w, Json.Obj (List.rev (Hashtbl.find summary w))))
      in
      (Json.Obj workloads, !regressions)
