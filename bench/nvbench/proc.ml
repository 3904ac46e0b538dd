(* The server under test as a real process: spawn to READY, SIGKILL and
   restart on the same image without blocking the load generator, and the
   /proc counters read from outside the process. *)

type ready = { pid : int; out : Unix.file_descr; recovery_ms : float }

let server_argv ~exe ~image ~sock =
  [|
    exe; "--image"; image; "--size"; "67108864"; "--workers"; "2"; "--nclients";
    string_of_int Workload.server_slots; "--unix"; sock;
  |]

(* Children not yet reaped; an exit on any path kills and reaps them. *)
let live = Hashtbl.create 4

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live)

let create_process prog argv ~stdout =
  let pid = Unix.create_process prog argv Unix.stdin stdout Unix.stderr in
  Hashtbl.replace live pid ();
  pid

let reaped pid = Hashtbl.remove live pid

let spawn ~exe ~image ~sock =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = create_process exe (server_argv ~exe ~image ~sock) ~stdout:out_w in
  Unix.close out_w;
  (pid, out_r)

let ready_field line name =
  let tag = name ^ "=" in
  List.find_map
    (fun w ->
      let n = String.length tag in
      if String.length w > n && String.sub w 0 n = tag then
        Some (String.sub w n (String.length w - n))
      else None)
    (String.split_on_char ' ' line)

let parse_ready line =
  if String.length line >= 5 && String.sub line 0 5 = "READY" then
    Option.map float_of_string (ready_field line "recovery_ms")
  else None

(* Spawn and block until READY; returns the time it took in ns. *)
let start_blocking ~exe ~image ~sock =
  let t0 = Stats.now_ns () in
  let pid, out = spawn ~exe ~image ~sock in
  let ic = Unix.in_channel_of_descr out in
  let rec wait () =
    match input_line ic with
    | line -> ( match parse_ready line with Some ms -> ms | None -> wait ())
    | exception End_of_file -> failwith "nvkv_server exited before READY"
  in
  let recovery_ms = wait () in
  ({ pid; out; recovery_ms }, Stats.now_ns () - t0)

let reap pid =
  ignore (Unix.waitpid [] pid);
  reaped pid

let stop { pid; out; _ } =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid;
  Unix.close out

let kill_now { pid; out; _ } =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid;
  Unix.close out

(* ------------------------------------------------------------------ *)
(* Non-blocking kill and restart                                       *)
(* ------------------------------------------------------------------ *)

type restart = {
  t_kill : int;
  mutable copy_ns : int;  (** time spent copying the image (traced runs) *)
  mutable t_ready : int;
  mutable recovery_ms : float;
  mutable load_rchar : int;  (** bytes the new process read up to READY *)
  mutable t_first_ack : int;  (** 0 until an answer arrives after READY *)
}

type state =
  | Running of ready
  | Dying of int * restart  (** killed pid, not yet reaped *)
  | Copying of int * int * restart  (** cp pid, its start time *)
  | Starting of int * Unix.file_descr * Buffer.t * restart

type t = {
  exe : string;
  image : string;
  sock : string;
  copy_to : int -> string option;
      (** where to copy the image after the kill with this index, if at all *)
  mutable state : state;
  mutable restarts : restart list;  (** newest first *)
  mutable next_check : int;  (** next liveness check of a running server, ns *)
}

let supervise ?(copy_to = fun _ -> None) ~exe ~image ~sock ready =
  { exe; image; sock; copy_to; state = Running ready; restarts = []; next_check = 0 }

let running t = match t.state with Running r -> Some r | _ -> None

let kill t =
  match t.state with
  | Running r ->
      let ev =
        {
          t_kill = Stats.now_ns ();
          copy_ns = 0;
          t_ready = 0;
          recovery_ms = 0.;
          load_rchar = 0;
          t_first_ack = 0;
        }
      in
      Unix.kill r.pid Sys.sigkill;
      Unix.close r.out;
      t.restarts <- ev :: t.restarts;
      t.state <- Dying (r.pid, ev)
  | _ -> invalid_arg "Proc.kill: server not running"

let read_io pid =
  let fields = Hashtbl.create 8 in
  (try
     let ic = open_in (Printf.sprintf "/proc/%d/io" pid) in
     Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
         try
           while true do
             match String.split_on_char ':' (input_line ic) with
             | [ k; v ] -> Hashtbl.replace fields k (int_of_string (String.trim v))
             | _ -> ()
           done
         with End_of_file -> ())
   with Sys_error _ -> ());
  fun k -> Option.value ~default:0 (Hashtbl.find_opt fields k)

let begin_start t ev =
  let pid, out = spawn ~exe:t.exe ~image:t.image ~sock:t.sock in
  Unix.set_nonblock out;
  t.state <- Starting (pid, out, Buffer.create 256, ev)

(* Advance a restart in progress: reap, copy the image if asked, spawn,
   read READY.  Never blocks. *)
let step t =
  match t.state with
  | Running r ->
      (* A server that dies unbidden would leave the generator re-sending
         forever. *)
      let now = Stats.now_ns () in
      if now >= t.next_check then begin
        t.next_check <- now + 100_000_000;
        match Unix.waitpid [ Unix.WNOHANG ] r.pid with
        | 0, _ -> ()
        | _ ->
            reaped r.pid;
            failwith "nvkv_server died without being killed"
      end
  | Dying (pid, ev) -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> (
          reaped pid;
          match t.copy_to (List.length t.restarts - 1) with
          | Some dest ->
              let cp =
                create_process "cp" [| "cp"; t.image; dest |] ~stdout:Unix.stderr
              in
              t.state <- Copying (cp, Stats.now_ns (), ev)
          | None -> begin_start t ev))
  | Copying (cp, t0, ev) -> (
      match Unix.waitpid [ Unix.WNOHANG ] cp with
      | 0, _ -> ()
      | _, Unix.WEXITED 0 ->
          reaped cp;
          ev.copy_ns <- Stats.now_ns () - t0;
          begin_start t ev
      | _ ->
          reaped cp;
          failwith "copying the server image failed")
  | Starting (pid, out, buf, ev) -> (
      let chunk = Bytes.create 512 in
      match Unix.read out chunk 0 512 with
      | 0 -> failwith "restarted nvkv_server exited before READY"
      | n -> (
          Buffer.add_subbytes buf chunk 0 n;
          let lines = String.split_on_char '\n' (Buffer.contents buf) in
          match List.find_map parse_ready lines with
          | Some ms ->
              ev.t_ready <- Stats.now_ns ();
              ev.recovery_ms <- ms;
              ev.load_rchar <- read_io pid "rchar";
              t.state <- Running { pid; out; recovery_ms = ms }
          | None -> ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ())

let watch t = match t.state with Starting (_, out, _, _) -> [ out ] | _ -> []

(* The first answer after READY closes the outage of the latest restart. *)
let note_ack t now =
  match t.restarts with
  | ev :: _ when ev.t_ready > 0 && ev.t_first_ack = 0 && now >= ev.t_ready ->
      ev.t_first_ack <- now
  | _ -> ()

let outage_ns ev = ev.t_first_ack - ev.t_kill - ev.copy_ns
let respawn_ns ev = ev.t_ready - ev.t_kill - ev.copy_ns

let settled t =
  running t <> None
  && match t.restarts with ev :: _ -> ev.t_first_ack > 0 | [] -> true

(* ------------------------------------------------------------------ *)
(* /proc counters                                                      *)
(* ------------------------------------------------------------------ *)

type counters = {
  cpu_ticks : int;  (** utime + stime, all threads, USER_HZ ticks *)
  syscw : int;
  wchar : int;
  ctxsw : int;  (** voluntary + involuntary switches, all threads *)
  rss_kb : int;
}

let read_lines path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go acc =
          match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
        in
        go [])
  with Sys_error _ -> []

let status_field lines key =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ k; v ] when k = key -> (
          match String.split_on_char ' ' (String.trim v) with
          | n :: _ -> acc + int_of_string n
          | [] -> acc)
      | _ -> acc)
    0 lines

(* [acc] plus the change from [b] to [a]; the resident size is [a]'s. *)
let add_delta acc b a =
  let z = { cpu_ticks = 0; syscw = 0; wchar = 0; ctxsw = 0; rss_kb = 0 } in
  let acc = Option.value acc ~default:z in
  {
    cpu_ticks = acc.cpu_ticks + a.cpu_ticks - b.cpu_ticks;
    syscw = acc.syscw + a.syscw - b.syscw;
    wchar = acc.wchar + a.wchar - b.wchar;
    ctxsw = acc.ctxsw + a.ctxsw - b.ctxsw;
    rss_kb = a.rss_kb;
  }

let counters pid =
  let cpu_ticks =
    match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
    | line :: _ ->
        (* fields after the parenthesised command name; utime and stime
           are the 14th and 15th fields of the whole line *)
        let rest = String.sub line (String.rindex line ')' + 2)
            (String.length line - String.rindex line ')' - 2) in
        let f = Array.of_list (String.split_on_char ' ' rest) in
        int_of_string f.(11) + int_of_string f.(12)
    | [] -> 0
  in
  let io = read_io pid in
  let tasks =
    try Sys.readdir (Printf.sprintf "/proc/%d/task" pid) with Sys_error _ -> [||]
  in
  let ctxsw =
    Array.fold_left
      (fun acc tid ->
        let lines = read_lines (Printf.sprintf "/proc/%d/task/%s/status" pid tid) in
        acc
        + status_field lines "voluntary_ctxt_switches"
        + status_field lines "nonvoluntary_ctxt_switches")
      0 tasks
  in
  let rss_kb = status_field (read_lines (Printf.sprintf "/proc/%d/status" pid)) "VmRSS" in
  { cpu_ticks; syscw = io "syscw"; wchar = io "wchar"; ctxsw; rss_kb }
