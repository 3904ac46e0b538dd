type handler = Wire.request -> (Wire.result -> unit) -> unit

(* Each connection owns one input and one output buffer.  Input bytes
   [rpos, rlen) are received but not yet decoded; output bytes
   [opos, olen) are encoded responses not yet written. *)
type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  mutable obuf : Bytes.t;
  mutable opos : int;
  mutable olen : int;
  mutable inflight : int;
  mutable eof : bool;
  mutable dead : bool;
}

type t = {
  listen_fd : Unix.file_descr;
  sockaddr : Unix.sockaddr;
  handler : handler;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_byte : Bytes.t;  (* read-only: the byte every wake writes *)
  junk : Bytes.t;  (* loop thread only: where drained wake bytes go *)
  mu : Mutex.t;
  completions : (conn * Wire.request * Wire.result * int) Queue.t;
  taken : (conn * Wire.request * Wire.result * int) Queue.t;
      (* loop thread only: the completions of the current tick *)
  mutable loop_domain : Domain.id option;
  stop : bool Atomic.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable inflight_total : int;  (* loop thread only *)
}

(* Every [read] offers at least this much room: a connection's input
   buffer starts at four times that, and when undecoded bytes leave less
   room it moves them to the front, or doubles if that is not enough.  The
   output buffer starts at this size and grows to hold a tick's answers. *)
let min_read = 4096

let create ?(backlog = 64) ~addr handler =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (match addr with
  | Unix.ADDR_UNIX path when Sys.file_exists path -> (
      try Unix.unlink path with _ -> ())
  | _ -> ());
  let listen_fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix.ADDR_INET _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
  | _ -> ());
  Unix.bind listen_fd addr;
  Unix.listen listen_fd backlog;
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    listen_fd;
    sockaddr = Unix.getsockname listen_fd;
    handler;
    wake_r;
    wake_w;
    wake_byte = Bytes.make 1 '\000';
    junk = Bytes.create 64;
    mu = Mutex.create ();
    completions = Queue.create ();
    taken = Queue.create ();
    loop_domain = None;
    stop = Atomic.make false;
    conns = Hashtbl.create 16;
    inflight_total = 0;
  }

let addr t = t.sockaddr

let wake t =
  try ignore (Unix.single_write t.wake_w t.wake_byte 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let request_stop t =
  Atomic.set t.stop true;
  wake t

(* A dead connection's record survives only inside pending completions,
   which check [dead] and drop the response; the fd is closed and removed
   from the table at once, so a recycled descriptor never collides. *)
let drop t conn =
  if not conn.dead then begin
    conn.dead <- true;
    Hashtbl.remove t.conns conn.fd;
    try Unix.close conn.fd with _ -> ()
  end

let pending_out conn = conn.opos < conn.olen

let push_out conn frame =
  let n = Bytes.length frame in
  if conn.olen + n > Bytes.length conn.obuf then begin
    let live = conn.olen - conn.opos in
    let buf =
      if live + n <= Bytes.length conn.obuf then conn.obuf
      else Bytes.create (max (live + n) (2 * Bytes.length conn.obuf))
    in
    Bytes.blit conn.obuf conn.opos buf 0 live;
    conn.obuf <- buf;
    conn.opos <- 0;
    conn.olen <- live
  end;
  Bytes.blit frame 0 conn.obuf conn.olen n;
  conn.olen <- conn.olen + n

(* One [write] of everything buffered; a partial write keeps the tail. *)
let write_out t conn =
  match Unix.single_write conn.fd conn.obuf conn.opos (conn.olen - conn.opos) with
  | n ->
      conn.opos <- conn.opos + n;
      if conn.opos = conn.olen then begin
        conn.opos <- 0;
        conn.olen <- 0
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> drop t conn

let drain_wake_pipe t =
  let rec loop () =
    match Unix.read t.wake_r t.junk 0 (Bytes.length t.junk) with
    | 0 -> ()
    | _ -> loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let drain_completions t =
  Mutex.protect t.mu (fun () -> Queue.transfer t.completions t.taken);
  Queue.iter
    (fun (conn, (req : Wire.request), result, t0_ns) ->
      t.inflight_total <- t.inflight_total - 1;
      conn.inflight <- conn.inflight - 1;
      if not conn.dead then begin
        push_out conn
          (Wire.encode_response
             { Wire.client = req.Wire.client; seq = req.Wire.seq; result });
        Obs.Counters.incr Obs.Probe.counters Requests_served;
        Obs.Probe.stop Net_request t0_ns
      end)
    t.taken;
  Queue.clear t.taken

(* The wake rule: only the completion that finds the queue empty writes the
   wake pipe.  The loop drains the pipe before it takes the queue, so a
   completion added after the take finds the queue empty and wakes the
   next [select]; one added before it is taken with the rest.  The loop's
   own completions (a handler answering synchronously) need no wake at
   all: the loop takes the queue before it next blocks. *)
let complete t conn req t0_ns result =
  let was_empty =
    Mutex.protect t.mu (fun () ->
        let was_empty = Queue.is_empty t.completions in
        Queue.add (conn, req, result, t0_ns) t.completions;
        was_empty)
  in
  if was_empty then
    match t.loop_domain with
    | Some d when d = Domain.self () -> ()
    | _ -> wake t

let dispatch t conn (req : Wire.request) =
  if Atomic.get t.stop then
    push_out conn
      (Wire.encode_response
         {
           Wire.client = req.Wire.client;
           seq = req.Wire.seq;
           result = Wire.Refused Wire.err_shutdown;
         })
  else begin
    let t0_ns = Obs.Probe.start () in
    conn.inflight <- conn.inflight + 1;
    t.inflight_total <- t.inflight_total + 1;
    t.handler req (complete t conn req t0_ns)
  end

(* Read straight into the connection's buffer, then decode every whole
   frame in place. *)
let handle_readable t conn =
  if Bytes.length conn.rbuf - conn.rlen < min_read then begin
    let live = conn.rlen - conn.rpos in
    let buf =
      if live + min_read <= Bytes.length conn.rbuf then conn.rbuf
      else Bytes.create (2 * Bytes.length conn.rbuf)
    in
    Bytes.blit conn.rbuf conn.rpos buf 0 live;
    conn.rbuf <- buf;
    conn.rpos <- 0;
    conn.rlen <- live
  end;
  match
    Unix.read conn.fd conn.rbuf conn.rlen (Bytes.length conn.rbuf - conn.rlen)
  with
  | 0 -> conn.eof <- true
  | n ->
      conn.rlen <- conn.rlen + n;
      let rec parse () =
        if not conn.dead then
          match
            Wire.decode_request conn.rbuf ~pos:conn.rpos
              ~len:(conn.rlen - conn.rpos)
          with
          | Wire.Complete (req, consumed) ->
              conn.rpos <- conn.rpos + consumed;
              dispatch t conn req;
              parse ()
          | Wire.Incomplete -> ()
          | Wire.Broken _ -> drop t conn
      in
      parse ();
      if conn.rpos = conn.rlen then begin
        conn.rpos <- 0;
        conn.rlen <- 0
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> drop t conn

let accept_ready t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _peer ->
        Unix.set_nonblock fd;
        Hashtbl.replace t.conns fd
          {
            fd;
            rbuf = Bytes.create (4 * min_read);
            rpos = 0;
            rlen = 0;
            obuf = Bytes.create min_read;
            opos = 0;
            olen = 0;
            inflight = 0;
            eof = false;
            dead = false;
          };
        Obs.Counters.incr Obs.Probe.counters Conns_accepted;
        loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        loop ()
  in
  loop ()

let serve t =
  t.loop_domain <- Some (Domain.self ());
  let conns () = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let rec loop () =
    drain_wake_pipe t;
    drain_completions t;
    (* Write this tick's responses at once, then reap connections with
       nothing left to do: peer gone and no response owed or buffered. *)
    List.iter
      (fun c ->
        if pending_out c then write_out t c;
        if c.eof && c.inflight = 0 && not (pending_out c) then drop t c)
      (conns ());
    let live = conns () in
    let stopping = Atomic.get t.stop in
    if stopping && t.inflight_total = 0 && not (List.exists pending_out live)
    then ()
    else begin
      let reads =
        t.wake_r
        :: (if stopping then [] else [ t.listen_fd ])
        @ List.filter_map (fun c -> if c.eof then None else Some c.fd) live
      in
      let writes =
        List.filter_map (fun c -> if pending_out c then Some c.fd else None) live
      in
      (match Unix.select reads writes [] (-1.) with
      | readable, writable, _ ->
          if List.memq t.listen_fd readable && not stopping then accept_ready t;
          List.iter
            (fun fd ->
              if fd <> t.listen_fd && fd <> t.wake_r then
                match Hashtbl.find_opt t.conns fd with
                | Some conn when not conn.dead -> handle_readable t conn
                | _ -> ())
            readable;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt t.conns fd with
              | Some conn when (not conn.dead) && pending_out conn ->
                  write_out t conn
              | _ -> ())
            writable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  List.iter (fun c -> drop t c) (conns ());
  (try Unix.close t.listen_fd with _ -> ());
  match t.sockaddr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with _ -> ())
  | _ -> ()
