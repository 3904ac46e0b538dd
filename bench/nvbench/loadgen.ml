(* The load generator: logical clients multiplexed over a few pipelined
   connections, driven by one event loop in one process.

   Client [c] owns dedup slot [c] and uses connection [c mod nconns].  It
   has at most one request in flight, as the exactly-once protocol
   requires; requests that arrive while it is busy wait in its backlog and
   are still timed from their own due time.  When a connection breaks (EOF,
   reset, or a server draining for shutdown) the generator re-polls
   [connect] every millisecond and re-sends every outstanding request of
   that connection with its original [(client, seq)], so the restarted
   server answers it from its dedup record or executes it once. *)

module Wire = Net.Wire

let now_ns = Stats.now_ns
let nconns = 2
let reconnect_every_ns = 1_000_000
let deadline_ns = 10_000_000_000  (* unanswered this long: failed *)

type req = {
  client : int;
  seq : int;
  op : Wire.op;
  tag : int;  (** the caller's phase label *)
  due : int;  (** ns; open loop: scheduled arrival; 0: timed from [sent] *)
  mutable sent : int;  (** first transmission, ns *)
}

(* Latency as the user sees it: from the due time when there is one. *)
let start_of r = if r.due > 0 then r.due else r.sent

type conn = {
  mutable fd : Unix.file_descr option;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  out : Buffer.t;  (** encoded frames not yet written *)
  mutable next_connect : int;
}

type client = {
  mutable seq : int;
  mutable inflight : req option;
  backlog : req Queue.t;
}

type t = {
  addr : Unix.sockaddr;
  conns : conn array;
  clients : client array;
  chunk : Bytes.t;
  mutable on_ack : req -> Wire.result -> int -> unit;
      (** called once per request with its answer and the receive time *)
  mutable watch : Unix.file_descr list;
      (** extra descriptors that should wake the loop (a server's pipe) *)
  mutable attempted : int;
  mutable refused : int;
  mutable expired : int;
  mutable drops : int;
  mutable resent : int;
  mutable stray : int;  (** responses matching no outstanding request *)
}

let create ~addr ~nclients =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  {
    addr;
    conns =
      Array.init nconns (fun _ ->
          {
            fd = None;
            rbuf = Bytes.create 4096;
            rlen = 0;
            out = Buffer.create 4096;
            next_connect = 0;
          });
    clients =
      Array.init nclients (fun _ ->
          { seq = 0; inflight = None; backlog = Queue.create () });
    chunk = Bytes.create 65536;
    on_ack = (fun _ _ _ -> ());
    watch = [];
    attempted = 0;
    refused = 0;
    expired = 0;
    drops = 0;
    resent = 0;
    stray = 0;
  }

let conn_index client = client mod nconns
let failed t = t.refused + t.expired

let idle t =
  Array.for_all (fun c -> c.inflight = None && Queue.is_empty c.backlog) t.clients

let encode_into conn r =
  Buffer.add_bytes conn.out
    (Wire.encode_request { Wire.client = r.client; seq = r.seq; op = r.op })

let start t r =
  let c = t.clients.(r.client) in
  if r.sent = 0 then r.sent <- now_ns ();
  c.inflight <- Some r;
  let conn = t.conns.(conn_index r.client) in
  if conn.fd <> None then encode_into conn r

(* Issue the client's next request: at once when it is idle, otherwise
   after the requests ahead of it. *)
let submit t ~client ~tag ~due op =
  let c = t.clients.(client) in
  c.seq <- c.seq + 1;
  t.attempted <- t.attempted + 1;
  let r = { client; seq = c.seq; op; tag; due; sent = 0 } in
  if c.inflight = None && Queue.is_empty c.backlog then start t r
  else Queue.add r c.backlog

let drop t conn =
  match conn.fd with
  | None -> ()
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      conn.fd <- None;
      conn.rlen <- 0;
      Buffer.clear conn.out;
      conn.next_connect <- 0;
      t.drops <- t.drops + 1

let try_connect t i now =
  let conn = t.conns.(i) in
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr t.addr) Unix.SOCK_STREAM 0
  in
  match Unix.connect fd t.addr with
  | () ->
      Unix.set_nonblock fd;
      conn.fd <- Some fd;
      Array.iteri
        (fun client c ->
          match c.inflight with
          | Some r when conn_index client = i ->
              t.resent <- t.resent + 1;
              encode_into conn r
          | _ -> ())
        t.clients
  | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      conn.next_connect <- now + reconnect_every_ns

let connect t =
  let now = now_ns () in
  Array.iteri
    (fun i conn -> if conn.fd = None && now >= conn.next_connect then try_connect t i now)
    t.conns

let flush_out t conn =
  match conn.fd with
  | Some fd when Buffer.length conn.out > 0 -> (
      let s = Buffer.contents conn.out in
      match Unix.write_substring fd s 0 (String.length s) with
      | n ->
          Buffer.clear conn.out;
          if n < String.length s then
            Buffer.add_substring conn.out s n (String.length s - n)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          ()
      | exception Unix.Unix_error _ -> drop t conn)
  | _ -> ()

let complete t (c : client) r result now =
  c.inflight <- None;
  (match result with Wire.Refused _ -> t.refused <- t.refused + 1 | _ -> ());
  t.on_ack r result now;
  if c.inflight = None && not (Queue.is_empty c.backlog) then
    start t (Queue.pop c.backlog)

let handle_response t conn (resp : Wire.response) now =
  let c =
    if resp.Wire.client >= 0 && resp.Wire.client < Array.length t.clients then
      Some t.clients.(resp.Wire.client)
    else None
  in
  match c with
  | Some c -> (
      match c.inflight with
      | Some r when r.seq = resp.Wire.seq -> (
          match resp.Wire.result with
          | Wire.Refused code when code = Wire.err_shutdown ->
              (* The server is draining: re-send to its successor. *)
              drop t conn
          | result -> complete t c r result now)
      | _ -> t.stray <- t.stray + 1)
  | None -> t.stray <- t.stray + 1

let rec read_conn t conn fd =
  match Unix.read fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> drop t conn
  | n ->
      let now = now_ns () in
      let need = conn.rlen + n in
      if Bytes.length conn.rbuf < need then begin
        let bigger = Bytes.create (max need (2 * Bytes.length conn.rbuf)) in
        Bytes.blit conn.rbuf 0 bigger 0 conn.rlen;
        conn.rbuf <- bigger
      end;
      Bytes.blit t.chunk 0 conn.rbuf conn.rlen n;
      conn.rlen <- need;
      let rec parse () =
        if conn.fd = Some fd then
          match Wire.decode_response conn.rbuf ~len:conn.rlen with
          | Wire.Complete (resp, used) ->
              Bytes.blit conn.rbuf used conn.rbuf 0 (conn.rlen - used);
              conn.rlen <- conn.rlen - used;
              handle_response t conn resp now;
              parse ()
          | Wire.Incomplete -> ()
          | Wire.Broken _ -> drop t conn
      in
      parse ();
      if conn.fd = Some fd then read_conn t conn fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> drop t conn

(* Requests past the deadline are abandoned and counted as failed. *)
let expire t now =
  Array.iter
    (fun c ->
      match c.inflight with
      | Some r when now - r.sent > deadline_ns ->
          t.expired <- t.expired + 1;
          c.inflight <- None;
          if not (Queue.is_empty c.backlog) then start t (Queue.pop c.backlog)
      | _ -> ())
    t.clients

(* One loop iteration: connect what is down, write what is queued, then wait
   for I/O until [until] (ns) at the latest and handle it. *)
let poll t ~until =
  connect t;
  Array.iter (flush_out t) t.conns;
  let now = now_ns () in
  expire t now;
  let wake =
    Array.fold_left
      (fun w conn -> if conn.fd = None then min w conn.next_connect else w)
      until t.conns
  in
  let fds f = Array.to_list t.conns |> List.filter_map f in
  let reads = t.watch @ fds (fun c -> c.fd) in
  let writes =
    fds (fun c -> if Buffer.length c.out > 0 then c.fd else None)
  in
  let timeout = float_of_int (max 0 (wake - now)) /. 1e9 in
  match Unix.select reads writes [] timeout with
  | readable, writable, _ ->
      Array.iter
        (fun conn ->
          match conn.fd with
          | Some fd when List.mem fd readable ->
              read_conn t conn fd
          | _ -> ())
        t.conns;
      Array.iter
        (fun conn ->
          match conn.fd with
          | Some fd when List.mem fd writable -> flush_out t conn
          | _ -> ())
        t.conns;
      Array.iter (flush_out t) t.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Run the loop until [finished ()]; [tick now] runs before every iteration
   and returns the latest time the next iteration may start. *)
let run ?(tick = fun now -> now + 10_000_000) t ~finished =
  while not (finished ()) do
    let until = tick (now_ns ()) in
    poll t ~until
  done

(* Closed loop: each listed client issues its requests back to back, the
   next one leaving as soon as the previous is answered. *)
let closed ?tick t ~tag ~requests =
  List.iter (fun (client, ops) -> List.iter (submit t ~client ~tag ~due:0) ops) requests;
  run ?tick t ~finished:(fun () -> idle t)

(* Open loop: arrival [k] (an offset from [start], ns) goes to client
   [k mod nclients].  [late] receives how far behind schedule the generator
   issued each arrival. *)
let open_loop ?(tick = fun now -> now + 10_000_000) t ~tag ~start ~arrivals
    ~nclients ~next_op ~late =
  let k = ref 0 in
  let n = Array.length arrivals in
  run t
    ~finished:(fun () -> !k >= n && idle t)
    ~tick:(fun now ->
      while !k < n && start + arrivals.(!k) <= now do
        let due = start + arrivals.(!k) in
        Stats.add late (now - due);
        let client = !k mod nclients in
        submit t ~client ~tag ~due (next_op client);
        incr k
      done;
      let next = if !k < n then start + arrivals.(!k) else max_int in
      min next (tick now))

let close t = Array.iter (drop t) t.conns
