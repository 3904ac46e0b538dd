type server = {
  pid : int;
  addr : string;
  sockaddr : Unix.sockaddr;
  fresh : bool;
  output : in_channel;
}

type start_failure = Killed_before_ready | Died of string

(* The recovery-time budget every start runs under: the server itself
   refuses to serve (exit 4) when attach-to-serving takes longer.  2000 ms
   is generous for a 2 MiB image on a shared runner; recovery replays the
   persistent stack, so it is bounded by live state, and a recovery that
   walks the whole history or loops blows any constant. *)
let recovery_budget_ms = 2000.

let server_exe () =
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [
      Filename.concat dir "nvkv_server.exe";
      Filename.concat dir (Filename.concat ".." "bin/nvkv_server.exe");
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None ->
      failwith
        (Printf.sprintf "nvkv_server.exe not found near %s" Sys.executable_name)

let parse_addr s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      Unix.ADDR_UNIX (String.sub s (i + 1) (String.length s - i - 1))
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | Some j ->
          Unix.ADDR_INET
            ( Unix.inet_addr_of_string (String.sub rest 0 j),
              int_of_string
                (String.sub rest (j + 1) (String.length rest - j - 1)) )
      | None -> invalid_arg "tcp address without port")
  | _ -> invalid_arg ("bad server address: " ^ s)

let ready_field line name =
  let tag = name ^ "=" in
  List.find_map
    (fun word ->
      if
        String.length word > String.length tag
        && String.sub word 0 (String.length tag) = tag
      then
        Some (String.sub word (String.length tag)
                (String.length word - String.length tag))
      else None)
    (String.split_on_char ' ' line)

let start_server ?(size = 1 lsl 21) ?(workers = 1) ?(nclients = 16)
    ?(kill_at = 0) ?(kill_from = `Ready) ?(extra_args = []) ~image ~sock () =
  let exe = server_exe () in
  let argv =
    [
      exe; "--image"; image; "--size"; string_of_int size; "--workers";
      string_of_int workers; "--nclients"; string_of_int nclients; "--unix";
      sock; "--max-recovery-ms";
      Printf.sprintf "%g" recovery_budget_ms;
    ]
    @ (if kill_at > 0 then
         [
           "--kill-at-point"; string_of_int kill_at; "--kill-from";
           (match kill_from with `Ready -> "ready" | `Startup -> "startup");
         ]
       else [])
    @ extra_args
  in
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process exe (Array.of_list argv) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let rec wait_ready () =
    match input_line ic with
    | line when String.length line >= 5 && String.sub line 0 5 = "READY" -> (
        match (ready_field line "addr", ready_field line "fresh") with
        | Some addr, Some fresh ->
            Ok
              {
                pid;
                addr;
                sockaddr = parse_addr addr;
                fresh = bool_of_string fresh;
                output = ic;
              }
        | _ -> Error (Died ("malformed READY line: " ^ line)))
    | _ -> wait_ready ()
    | exception End_of_file ->
        let _, status = Unix.waitpid [] pid in
        Error
          (match status with
          | Unix.WSIGNALED s when s = Sys.sigkill -> Killed_before_ready
          | Unix.WEXITED 4 ->
              Died
                (Printf.sprintf
                   "server exited 4 before READY: startup recovery exceeded \
                    the %g ms budget (--max-recovery-ms)"
                   recovery_budget_ms)
          | Unix.WEXITED code ->
              Died (Printf.sprintf "server exited %d before READY" code)
          | _ -> Died "server died before READY")
  in
  let result = wait_ready () in
  (* On success the pipe's read end stays open as [output] for the
     server's lifetime (its STATS line fits the pipe buffer); on failure
     keep descriptors tidy. *)
  (match result with Error _ -> ( try Unix.close out_r with _ -> ()) | Ok _ -> ());
  result

let kill_server pid =
  Unix.kill pid Sys.sigkill;
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | status ->
      failwith
        (Printf.sprintf "server %d did not die from SIGKILL (%s)" pid
           (match status with
           | Unix.WEXITED c -> Printf.sprintf "exited %d" c
           | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
           | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s))

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
  let _, status = Unix.waitpid [] pid in
  status

(* ------------------------------------------------------------------ *)
(* Seeded schedules                                                    *)
(* ------------------------------------------------------------------ *)

type spec = {
  seed : int;
  case : int;
  kill_at : int;
  kill_from : [ `Ready | `Startup ];
  reqs : (int * Wire.op) list;
}

let header = "server-repro v1"

let spec_to_string spec =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf (Printf.sprintf "seed %d\n" spec.seed);
  Buffer.add_string buf (Printf.sprintf "case %d\n" spec.case);
  Buffer.add_string buf
    (Printf.sprintf "kill %d %s\n" spec.kill_at
       (match spec.kill_from with `Ready -> "ready" | `Startup -> "startup"));
  List.iter
    (fun (client, op) ->
      Buffer.add_string buf
        (Printf.sprintf "req %d %s\n" client (Wire.op_to_string op)))
    spec.reqs;
  Buffer.contents buf

let is_spec text =
  String.length text >= String.length header
  && String.sub text 0 (String.length header) = header

(* One reproducer line applied to [spec]; requests accumulate newest
   first.  Every malformed line is an [Error] naming it. *)
let parse_spec_line spec line =
  let bad () = Error ("bad reproducer line: " ^ line) in
  let int v k =
    match int_of_string_opt v with Some n -> k n | None -> bad ()
  in
  match String.split_on_char ' ' line with
  | [ "seed"; v ] -> int v (fun seed -> Ok { spec with seed })
  | [ "case"; v ] -> int v (fun case -> Ok { spec with case })
  | [ "kill"; k; from ] -> (
      match from with
      | "ready" ->
          int k (fun kill_at -> Ok { spec with kill_at; kill_from = `Ready })
      | "startup" ->
          int k (fun kill_at -> Ok { spec with kill_at; kill_from = `Startup })
      | _ -> bad ())
  | "req" :: client :: op_words ->
      int client (fun client ->
          match Wire.op_of_string (String.concat " " op_words) with
          | Some op when client >= 0 ->
              Ok { spec with reqs = (client, op) :: spec.reqs }
          | Some _ -> bad ()
          | None -> Error ("bad op in line: " ^ line))
  | _ -> bad ()

let spec_of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let rec parse spec = function
    | [] -> Ok { spec with reqs = List.rev spec.reqs }
    | line :: rest ->
        Result.bind (parse_spec_line spec line) (fun spec -> parse spec rest)
  in
  match lines with
  | first :: rest when first = header ->
      parse
        { seed = 0; case = 0; kill_at = 0; kill_from = `Ready; reqs = [] }
        rest
  | _ -> Error "not a server reproducer (missing header)"

(* ------------------------------------------------------------------ *)
(* The oracle run                                                      *)
(* ------------------------------------------------------------------ *)

exception Violation of string

let violate fmt = Printf.ksprintf (fun m -> raise (Violation m)) fmt

type stats = { restarts : int }

let run_spec ?(verbose = false) spec =
  let image = Filename.temp_file "nvkv_spec" ".img" in
  Sys.remove image;
  let sock = image ^ ".sock" in
  let say fmt =
    Printf.ksprintf (fun m -> if verbose then Printf.eprintf "harness: %s\n%!" m) fmt
  in
  let nclients =
    1 + List.fold_left (fun acc (c, _) -> max acc c) 0 spec.reqs
  in
  let start ~kill =
    start_server ~workers:1 ~nclients
      ~kill_at:(if kill then spec.kill_at else 0)
      ~kill_from:spec.kill_from ~image ~sock ()
  in
  let server = ref None in
  let clients : (int, Client.t) Hashtbl.t = Hashtbl.create 4 in
  let cleanup () =
    Hashtbl.iter (fun _ c -> try Client.close c with _ -> ()) clients;
    (match !server with
    | Some s -> ( try ignore (stop_server s.pid) with _ -> ())
    | None -> ());
    (try Sys.remove image with _ -> ());
    try Sys.remove sock with _ -> ()
  in
  let restarts = ref 0 in
  (* Once an incarnation has printed READY the root is published, so every
     later start must attach: a fresh format there would drop acked
     writes. *)
  let ready_seen = ref false in
  let started = function
    | Ok s ->
        server := Some s;
        if !ready_seen && s.fresh then
          violate "restart after READY formatted a fresh image";
        ready_seen := true
    | Error Killed_before_ready -> violate "restart killed before READY"
    | Error (Died m) -> violate "%s" m
  in
  let restart_clean reason =
    say "restarting server (%s)" reason;
    incr restarts;
    started (start ~kill:false)
  in
  let restart_if_dead () =
    match !server with
    | None -> restart_clean "no server"
    | Some s -> (
        match Unix.waitpid [ Unix.WNOHANG ] s.pid with
        | 0, _ -> () (* alive: transient connection failure, just retry *)
        | _, Unix.WSIGNALED sg when sg = Sys.sigkill ->
            server := None;
            restart_clean "killed"
        | _, status ->
            server := None;
            violate "server died unexpectedly (%s)"
              (match status with
              | Unix.WEXITED c -> Printf.sprintf "exit %d" c
              | Unix.WSIGNALED sg -> Printf.sprintf "signal %d" sg
              | Unix.WSTOPPED sg -> Printf.sprintf "stopped %d" sg))
  in
  let get_client c =
    match Hashtbl.find_opt clients c with
    | Some t -> t
    | None ->
        let t = Client.connect ~addr:(parse_addr ("unix:" ^ sock)) ~client:c in
        Hashtbl.add clients c t;
        t
  in
  (* Same-identity retry with supervision: when the connection dies, reap
     and restart the (killed) server, then re-send the same (client, seq)
     — the exactly-once claim under test. *)
  let send client op =
    let t = get_client client in
    Client.set_seq t (Client.seq t + 1);
    let seq = Client.seq t in
    let rec attempt tries =
      if tries > 400 then failwith "harness: request retried out"
      else
        match Client.call_seq t ~seq op with
        | result -> result
        | exception (Unix.Unix_error _ | End_of_file) ->
            restart_if_dead ();
            Unix.sleepf 0.01;
            attempt (tries + 1)
    in
    attempt 0
  in
  let run () =
    (match start ~kill:(spec.kill_at > 0) with
    | Error Killed_before_ready ->
        (* A startup kill landed inside create/recovery — the recovery
           under test.  Restart clean; attach must finish the job. *)
        restart_clean "killed before READY"
    | first -> started first);
    (* Exact sequential model: one worker and one request in flight mean
       execution order is send order. *)
    let map_model : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let queue_model : int Queue.t = Queue.create () in
    let last_req : (int, int * Wire.op * Wire.result) Hashtbl.t =
      Hashtbl.create 4
    in
    List.iteri
      (fun i (client, op) ->
        let result = send client op in
        let t = Hashtbl.find clients client in
        Hashtbl.replace last_req client (Client.seq t, op, result);
        let expected =
          match op with
          | Wire.Ping | Wire.Last_seq -> None (* not driven by specs *)
          | Wire.Put (k, v) ->
              Hashtbl.replace map_model k v;
              Some Wire.Done
          | Wire.Get k -> (
              match Hashtbl.find_opt map_model k with
              | Some v -> Some (Wire.Value v)
              | None -> Some Wire.Nothing)
          | Wire.Del k ->
              if Hashtbl.mem map_model k then begin
                Hashtbl.remove map_model k;
                Some Wire.Done
              end
              else Some Wire.Nothing
          | Wire.Enqueue v ->
              Queue.add v queue_model;
              Some Wire.Done
          | Wire.Dequeue ->
              if Queue.is_empty queue_model then Some Wire.Nothing
              else Some (Wire.Value (Queue.pop queue_model))
        in
        match expected with
        | Some expected when expected <> result ->
            violate "req %d (client %d, %s): got %s, model says %s" i client
              (Wire.op_to_string op)
              (Format.asprintf "%a" Wire.pp_result result)
              (Format.asprintf "%a" Wire.pp_result expected)
        | _ -> say "req %d ok: client %d %s" i client (Wire.op_to_string op))
      spec.reqs;
    (* Duplicate probe: an already-acked (client, seq) must be answered
       from the dedup record — identical result, no re-execution.  A
       re-executed Dequeue would take a different element (or empty); a
       re-executed Put would be invisible here but is caught by the queue
       oracle conservation below. *)
    Hashtbl.iter
      (fun client (seq, op, original) ->
        let t = Hashtbl.find clients client in
        let rec probe tries =
          match Client.call_seq t ~seq op with
          | r -> r
          | exception (Unix.Unix_error _ | End_of_file) ->
              if tries > 100 then failwith "harness: dup probe retried out";
              restart_if_dead ();
              Unix.sleepf 0.01;
              probe (tries + 1)
        in
        let replayed = probe 0 in
        if replayed <> original then
          violate "dup probe (client %d, seq %d, %s): first answer %s, replay %s"
            client seq (Wire.op_to_string op)
            (Format.asprintf "%a" Wire.pp_result original)
            (Format.asprintf "%a" Wire.pp_result replayed))
      last_req;
    (* Map oracle: every touched key reads back as the model says. *)
    let touched =
      List.filter_map
        (fun (_, op) ->
          match op with
          | Wire.Put (k, _) | Wire.Get k | Wire.Del k -> Some k
          | _ -> None)
        spec.reqs
      |> List.sort_uniq compare
    in
    let probe_client =
      match spec.reqs with (c, _) :: _ -> c | [] -> 0
    in
    List.iter
      (fun k ->
        let result = send probe_client (Wire.Get k) in
        let expected =
          match Hashtbl.find_opt map_model k with
          | Some v -> Wire.Value v
          | None -> Wire.Nothing
        in
        if result <> expected then
          violate "final get %d: got %s, model says %s" k
            (Format.asprintf "%a" Wire.pp_result result)
            (Format.asprintf "%a" Wire.pp_result expected))
      touched;
    (* Queue oracle: drain and compare in exact FIFO order. *)
    let rec drain () =
      match send probe_client Wire.Dequeue with
      | Wire.Value v ->
          if Queue.is_empty queue_model then
            violate "drain: dequeued %d from a model-empty queue" v
          else begin
            let expected = Queue.pop queue_model in
            if v <> expected then
              violate "drain: dequeued %d, model front is %d" v expected
          end;
          drain ()
      | Wire.Nothing ->
          if not (Queue.is_empty queue_model) then
            violate "drain: queue empty but model still holds %d element(s)"
              (Queue.length queue_model)
      | other ->
          violate "drain: dequeue answered %s"
            (Format.asprintf "%a" Wire.pp_result other)
    in
    if spec.reqs <> [] then drain ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      match run () with
      | () -> Ok { restarts = !restarts }
      | exception Violation m -> Error m)
