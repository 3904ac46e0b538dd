module System = Runtime.System

type kind = Rstack | Rqueue | Rmap | Rcas | Rcas_buggy | Faulty | Rcounter

type op =
  | Push of int
  | Pop
  | Enqueue of int
  | Dequeue
  | Put of int * int
  | Remove of int
  | Cas of int * int
  | Bump

type t = {
  kind : kind;
  workers : int;
  init : int;
  stack : System.stack_kind;
  ops : op list;
}

let correct_kinds = [ Rstack; Rqueue; Rmap; Rcas; Rcounter ]

let kind_to_string = function
  | Rstack -> "rstack"
  | Rqueue -> "rqueue"
  | Rmap -> "rmap"
  | Rcas -> "rcas"
  | Rcas_buggy -> "rcas-buggy"
  | Faulty -> "faulty"
  | Rcounter -> "rcounter"

let kind_of_string = function
  | "rstack" -> Ok Rstack
  | "rqueue" -> Ok Rqueue
  | "rmap" -> Ok Rmap
  | "rcas" -> Ok Rcas
  | "rcas-buggy" -> Ok Rcas_buggy
  | "faulty" -> Ok Faulty
  | "rcounter" -> Ok Rcounter
  | other -> Error (Printf.sprintf "unknown workload kind %S" other)

(* The stack kinds at their default sizes, the first the default: what
   campaigns draw and what [cas_experiment --stack NAME] runs. *)
let stacks = System.[ Bounded_stack 4096; Resizable_stack 256; Linked_stack 256 ]
let default_stack = List.hd stacks

let stack_to_string = function
  | System.Bounded_stack n -> Printf.sprintf "bounded %d" n
  | System.Resizable_stack n -> Printf.sprintf "resizable %d" n
  | System.Linked_stack n -> Printf.sprintf "linked %d" n

(* ["linked 256"], or a bare ["linked"] for the kind's default size. *)
let stack_of_string s =
  let named name =
    List.find_opt
      (fun k -> String.starts_with ~prefix:(name ^ " ") (stack_to_string k))
      stacks
  in
  let sized n = function
    | System.Bounded_stack _ -> System.Bounded_stack n
    | System.Resizable_stack _ -> System.Resizable_stack n
    | System.Linked_stack _ -> System.Linked_stack n
  in
  let kind =
    match String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "") with
    | [ name ] -> named name
    | [ name; size ] -> (
        match (named name, int_of_string_opt size) with
        | Some k, Some n when n > 0 -> Some (sized n k)
        | _ -> None)
    | _ -> None
  in
  Option.to_result kind
    ~none:
      (Printf.sprintf "expected bounded | resizable | linked [SIZE], got %S" s)

(* Distinct values per mutation make exactly-once violations observable:
   the same value showing up in two answers is proof of a duplicated
   operation, whatever the interleaving was. *)
let value_of_index i = 100 + i

let map_keys = 8

let generate kind ~rng ~n_ops ~workers =
  let n_ops = max n_ops 1 in
  let gen i =
    match kind with
    | Rstack -> if Random.State.int rng 5 < 3 then Push (value_of_index i) else Pop
    | Rqueue ->
        if Random.State.int rng 5 < 3 then Enqueue (value_of_index i)
        else Dequeue
    | Rmap ->
        let key = Random.State.int rng map_keys in
        if Random.State.int rng 3 < 2 then Put (key, value_of_index i)
        else Remove key
    | Rcas | Rcas_buggy -> Cas (Random.State.int rng 4, Random.State.int rng 4)
    | Faulty | Rcounter -> Bump
  in
  let init =
    match kind with Rcas | Rcas_buggy -> Random.State.int rng 4 | _ -> 0
  in
  (* Both counters are forced to one worker: the planted bug must reproduce
     deterministically, and the correct counter's sequential-ordinal
     protocol (op [i] moves the counter from [i] to [i+1]) is only a valid
     oracle when tasks execute in submission order. *)
  let workers = match kind with Faulty | Rcounter -> 1 | _ -> max workers 1 in
  { kind; workers; init; stack = default_stack; ops = List.init n_ops gen }

let op_to_string = function
  | Push v -> Printf.sprintf "push %d" v
  | Pop -> "pop"
  | Enqueue v -> Printf.sprintf "enq %d" v
  | Dequeue -> "deq"
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Remove k -> Printf.sprintf "rm %d" k
  | Cas (e, d) -> Printf.sprintf "cas %d %d" e d
  | Bump -> "bump"

let op_of_string s =
  let int_arg what raw =
    match int_of_string_opt raw with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s is not an integer: %S" what raw)
  in
  let ( let* ) = Result.bind in
  match String.split_on_char ' ' (String.trim s) |> List.filter (( <> ) "") with
  | [ "push"; v ] ->
      let* v = int_arg "push value" v in
      Ok (Push v)
  | [ "pop" ] -> Ok Pop
  | [ "enq"; v ] ->
      let* v = int_arg "enqueue value" v in
      Ok (Enqueue v)
  | [ "deq" ] -> Ok Dequeue
  | [ "put"; k; v ] ->
      let* k = int_arg "put key" k in
      let* v = int_arg "put value" v in
      Ok (Put (k, v))
  | [ "rm"; k ] ->
      let* k = int_arg "remove key" k in
      Ok (Remove k)
  | [ "cas"; e; d ] ->
      let* e = int_arg "cas expected" e in
      let* d = int_arg "cas desired" d in
      Ok (Cas (e, d))
  | [ "bump" ] -> Ok Bump
  | _ -> Error (Printf.sprintf "unknown op %S" s)

let to_lines t =
  [
    Printf.sprintf "kind %s" (kind_to_string t.kind);
    Printf.sprintf "workers %d" t.workers;
    Printf.sprintf "init %d" t.init;
  ]
  (* The default stack is implicit, so reproducers written before stacks
     were selectable read and print the same. *)
  @ (if t.stack = default_stack then []
     else [ Printf.sprintf "stack %s" (stack_to_string t.stack) ])
  @ List.map (fun op -> Printf.sprintf "op %s" (op_to_string op)) t.ops

let of_lines lines =
  let ( let* ) = Result.bind in
  let* t =
    List.fold_left
      (fun acc line ->
        let* t = acc in
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (( <> ) "")
        with
        | [] -> Ok t
        | [ "kind"; k ] ->
            let* kind = kind_of_string k in
            Ok { t with kind }
        | [ "workers"; n ] -> (
            match int_of_string_opt n with
            | Some workers when workers >= 1 -> Ok { t with workers }
            | _ -> Error (Printf.sprintf "bad worker count %S" n))
        | [ "init"; v ] -> (
            match int_of_string_opt v with
            | Some init -> Ok { t with init }
            | None -> Error (Printf.sprintf "bad init value %S" v))
        | [ "stack"; name; size ] -> (
            match stack_of_string (name ^ " " ^ size) with
            | Ok stack -> Ok { t with stack }
            | Error _ -> Error (Printf.sprintf "bad stack entry %S" line))
        | "op" :: rest ->
            let* op = op_of_string (String.concat " " rest) in
            Ok { t with ops = op :: t.ops }
        | _ -> Error (Printf.sprintf "unknown workload entry %S" line))
      (Ok { kind = Rstack; workers = 1; init = 0; stack = default_stack; ops = [] })
      lines
  in
  if t.ops = [] then Error "workload has no ops"
  else Ok { t with ops = List.rev t.ops }

let pp fmt t =
  Format.fprintf fmt "%s workers=%d ops=%d" (kind_to_string t.kind) t.workers
    (List.length t.ops);
  if t.stack <> default_stack then
    Format.fprintf fmt " stack=%s" (stack_to_string t.stack)
