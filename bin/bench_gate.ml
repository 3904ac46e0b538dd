(* Bench regression gate: compare a fresh BENCH_pmem.json against the
   committed baseline and fail on a disproportionate throughput drop.

   The parser handles exactly the JSON bench/main.ml writes (flat rows of
   scalar fields) — no JSON dependency, on purpose.

   Absolute ops/sec is meaningless across machines, so the default mode
   normalises: per matching (bench, workers) row it takes the ratio
   candidate/baseline, then compares every row's ratio against the median
   ratio.  A uniformly slower CI runner moves all ratios together and
   passes; one benchmark losing more than [--tolerance] (default 0.30)
   relative to the pack fails.  [--absolute] compares raw ratios against
   [1 - tolerance] instead, for same-machine use.

   Every baseline row must have a matching (bench, workers) candidate row:
   a row that silently disappears from the bench output is itself a
   regression (historically these were dropped by the pairing filter and
   the gate passed vacuously).  [--allow-missing] restores the old
   behaviour for intentional bench removals.

   [--min-scaling R] additionally asserts the candidate's worker-scaling
   curve: for every bench with rows at 1 worker and at N > 1 workers, the
   ratio ops_per_sec(max N) / ops_per_sec(1) must be at least R.  This is
   what catches multicore anti-scaling collapses (a shared-lock or
   per-operation-allocation regression makes 8 workers *slower* than 1),
   which median-normalised per-row comparison cannot see.

   [--max-flush-per-op BENCH=B] (repeatable) asserts a flush budget on the
   candidate alone: every candidate row of BENCH must report
   flush_per_op <= B.  Unlike throughput, flush counts are deterministic
   and machine-independent, so the budget is absolute — this is the gate
   that keeps the flush coalescer honest (a protocol change that silently
   reintroduces eager write-backs fails here, not in a noisy timing
   column).  A budgeted bench with no candidate rows, or a budgeted row
   without the flush_per_op field, is a parse error (exit 2): a budget
   that cannot be evaluated must never pass vacuously.

   Exit codes: 0 pass, 1 regression, 2 usage/parse error. *)

type row = {
  bench : string;
  workers : int;
  ops_per_sec : float;
  (* Absent in pre-coalescing bench files; only consulted when a
     [--max-flush-per-op] budget names the row's bench. *)
  flush_per_op : float option;
}

exception Parse_error of string

let find_from content pos needle =
  let n = String.length needle and h = String.length content in
  let rec go i =
    if i + n > h then None
    else if String.sub content i n = needle then Some (i + n)
    else go (i + 1)
  in
  go pos

let string_field content pos name =
  match find_from content pos (Printf.sprintf "%S: \"" name) with
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" name))
  | Some start -> (
      match String.index_from_opt content start '"' with
      | None -> raise (Parse_error (Printf.sprintf "unterminated field %S" name))
      | Some stop -> String.sub content start (stop - start))

let number_field content pos name =
  match find_from content pos (Printf.sprintf "%S: " name) with
  | None -> raise (Parse_error (Printf.sprintf "missing field %S" name))
  | Some start ->
      let is_num c =
        (c >= '0' && c <= '9') || c = '.' || c = '-' || c = 'e' || c = '+'
      in
      let stop = ref start in
      while !stop < String.length content && is_num content.[!stop] do
        incr stop
      done;
      let raw = String.sub content start (!stop - start) in
      (match float_of_string_opt raw with
      | Some v -> v
      | None ->
          raise
            (Parse_error (Printf.sprintf "field %S is not a number: %S" name raw)))

let parse_rows content =
  let rec go pos acc =
    match find_from content pos "\"bench\"" with
    | None -> List.rev acc
    | Some after ->
        (* Re-anchor at the start of the key, and bound the field search at
           the row's closing brace: the gate cares only about throughput, so
           rows may carry any extra columns (latency percentiles, flush
           ratios, future additions), but a field must never be picked up
           from a *different* row. *)
        let at = after - String.length "\"bench\"" in
        let stop =
          match String.index_from_opt content at '}' with
          | Some i -> i
          | None -> String.length content
        in
        let row_content = String.sub content 0 stop in
        let row =
          {
            bench = string_field row_content at "bench";
            workers = int_of_float (number_field row_content at "workers");
            ops_per_sec = number_field row_content at "ops_per_sec";
            flush_per_op =
              (try Some (number_field row_content at "flush_per_op")
               with Parse_error _ -> None);
          }
        in
        go after (row :: acc)
  in
  match go 0 [] with
  | [] -> raise (Parse_error "no benchmark rows found")
  | rows -> rows

let read_rows path =
  let ic =
    try open_in path
    with Sys_error msg -> raise (Parse_error msg)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse_rows (really_input_string ic (in_channel_length ic)))

let median = function
  | [] -> raise (Parse_error "no common rows between baseline and candidate")
  | values ->
      let sorted = List.sort compare values in
      List.nth sorted (List.length sorted / 2)

(* Worker-scaling assertion on the candidate alone: for each bench with a
   1-worker row and rows at higher worker counts, check
   ops(max workers) / ops(1 worker) >= floor. *)
let scaling_failures cand ~floor =
  let benches =
    List.sort_uniq compare (List.map (fun c -> c.bench) cand)
  in
  List.filter_map
    (fun bench ->
      let rows = List.filter (fun c -> c.bench = bench) cand in
      let at n = List.find_opt (fun c -> c.workers = n) rows in
      let max_w =
        List.fold_left (fun acc c -> max acc c.workers) 1 rows
      in
      match at 1 with
      | Some one when max_w > 1 -> (
          match at max_w with
          | Some top when one.ops_per_sec > 0. ->
              let ratio = top.ops_per_sec /. one.ops_per_sec in
              let bad = ratio < floor in
              Printf.printf "scaling %-12s %dw/1w = %.3f (floor %.3f) %s\n"
                bench max_w ratio floor
                (if bad then "FAIL" else "ok");
              if bad then Some (bench, max_w, ratio) else None
          | _ -> None)
      | _ -> None)
    benches

(* Flush budgets on the candidate alone; deterministic, so absolute.  A
   budget that cannot be evaluated (unknown bench, or rows without the
   field) raises rather than passing vacuously. *)
let flush_budget_failures cand ~budgets =
  List.concat_map
    (fun (bench, budget) ->
      let rows = List.filter (fun c -> c.bench = bench) cand in
      if rows = [] then
        raise
          (Parse_error
             (Printf.sprintf
                "--max-flush-per-op %s=%g matches no candidate row" bench
                budget));
      List.filter_map
        (fun c ->
          match c.flush_per_op with
          | None ->
              raise
                (Parse_error
                   (Printf.sprintf
                      "candidate row %s/%dw has no flush_per_op field \
                       (required by --max-flush-per-op)"
                      c.bench c.workers))
          | Some f ->
              let bad = f > budget in
              Printf.printf
                "flush   %-22s %dw  %.4f flush/op (budget %.2f) %s\n" c.bench
                c.workers f budget
                (if bad then "FAIL" else "ok");
              if bad then Some (c.bench, c.workers, f) else None)
        rows)
    budgets

let run baseline candidate tolerance absolute allow_missing min_scaling
    flush_budgets =
  let base = read_rows baseline and cand = read_rows candidate in
  let missing =
    List.filter
      (fun b ->
        not
          (List.exists
             (fun c -> c.bench = b.bench && c.workers = b.workers)
             cand))
      base
  in
  List.iter
    (fun b ->
      Printf.printf "%s candidate row for %s/%dw missing from %s\n"
        (if allow_missing then "note:" else "FAIL:")
        b.bench b.workers candidate)
    missing;
  let pairs =
    List.filter_map
      (fun b ->
        List.find_opt
          (fun c -> c.bench = b.bench && c.workers = b.workers)
          cand
        |> Option.map (fun c -> (b, c)))
      base
  in
  let ratios =
    List.map
      (fun (b, c) ->
        if b.ops_per_sec <= 0. then
          raise (Parse_error (Printf.sprintf "baseline %s/%d has no throughput" b.bench b.workers));
        (b, c, c.ops_per_sec /. b.ops_per_sec))
      pairs
  in
  let reference =
    if absolute then 1.0 else median (List.map (fun (_, _, r) -> r) ratios)
  in
  let floor = (1. -. tolerance) *. reference in
  Printf.printf "%-12s %8s %14s %14s %8s %8s\n" "bench" "workers" "baseline"
    "candidate" "ratio" "verdict";
  let failures =
    List.filter
      (fun (b, c, r) ->
        let bad = r < floor in
        Printf.printf "%-12s %8d %14.0f %14.0f %8.3f %8s\n" b.bench b.workers
          b.ops_per_sec c.ops_per_sec r
          (if bad then "FAIL" else "ok");
        bad)
      ratios
  in
  Printf.printf "reference ratio %.3f, floor %.3f (tolerance %.0f%%, %s)\n"
    reference floor (tolerance *. 100.)
    (if absolute then "absolute" else "median-normalised");
  let scaling_failed =
    match min_scaling with
    | None -> []
    | Some r -> scaling_failures cand ~floor:r
  in
  let flush_failed = flush_budget_failures cand ~budgets:flush_budgets in
  let verdicts =
    [
      (failures <> [],
       Printf.sprintf "%d row(s) regressed more than %.0f%%"
         (List.length failures) (tolerance *. 100.));
      (missing <> [] && not allow_missing,
       Printf.sprintf
         "%d baseline row(s) have no candidate row (pass --allow-missing \
          to waive)"
         (List.length missing));
      (scaling_failed <> [],
       Printf.sprintf "scaling below the floor: %s"
         (String.concat ", "
            (List.map
               (fun (bench, w, r) ->
                 Printf.sprintf "%s (%dw/1w=%.3f)" bench w r)
               scaling_failed)));
      (flush_failed <> [],
       Printf.sprintf "flush budget exceeded: %s"
         (String.concat ", "
            (List.map
               (fun (bench, w, f) ->
                 Printf.sprintf "%s/%dw=%.2f flush/op" bench w f)
               flush_failed)));
    ]
    |> List.filter_map (fun (bad, msg) -> if bad then Some msg else None)
  in
  if verdicts = [] then begin
    Printf.printf "bench gate: pass (%d rows compared)\n" (List.length ratios);
    0
  end
  else begin
    List.iter (Printf.printf "bench gate: %s\n") verdicts;
    1
  end

let usage () =
  prerr_endline
    "usage: bench_gate --baseline PATH --candidate PATH [--tolerance T] \
     [--absolute] [--allow-missing] [--min-scaling R] \
     [--max-flush-per-op BENCH=B]...";
  exit 2

let () =
  let baseline = ref None and candidate = ref None in
  let tolerance = ref 0.30 and absolute = ref false in
  let allow_missing = ref false and min_scaling = ref None in
  let flush_budgets = ref [] in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: path :: rest ->
        baseline := Some path;
        parse rest
    | "--candidate" :: path :: rest ->
        candidate := Some path;
        parse rest
    | "--tolerance" :: t :: rest -> (
        match float_of_string_opt t with
        | Some t when t > 0. && t < 1. ->
            tolerance := t;
            parse rest
        | _ -> usage ())
    | "--absolute" :: rest ->
        absolute := true;
        parse rest
    | "--allow-missing" :: rest ->
        allow_missing := true;
        parse rest
    | "--min-scaling" :: r :: rest -> (
        match float_of_string_opt r with
        | Some r when r > 0. ->
            min_scaling := Some r;
            parse rest
        | _ -> usage ())
    | "--max-flush-per-op" :: spec :: rest -> (
        match String.index_opt spec '=' with
        | Some i -> (
            let bench = String.sub spec 0 i in
            let budget =
              String.sub spec (i + 1) (String.length spec - i - 1)
            in
            match float_of_string_opt budget with
            | Some b when bench <> "" && b >= 0. ->
                flush_budgets := !flush_budgets @ [ (bench, b) ];
                parse rest
            | _ -> usage ())
        | None -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!baseline, !candidate) with
  | Some b, Some c -> (
      try
        exit
          (run b c !tolerance !absolute !allow_missing !min_scaling
             !flush_budgets)
      with
      | Parse_error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2)
  | _ -> usage ()
