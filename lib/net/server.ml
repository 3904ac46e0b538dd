type handler = Wire.request -> (Wire.result -> unit) -> unit

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  out : Bytes.t Queue.t;
  mutable outpos : int;  (* bytes of the head chunk already written *)
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
  mu : Mutex.t;
  completions : (conn * Wire.request * Wire.result * int) Queue.t;
  stop : bool Atomic.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable inflight_total : int;  (* loop thread only *)
}

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
    mu = Mutex.create ();
    completions = Queue.create ();
    stop = Atomic.make false;
    conns = Hashtbl.create 16;
    inflight_total = 0;
  }

let addr t = t.sockaddr

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.make 1 '\000') 0 1)
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

let push_out conn frame = Queue.add frame conn.out

let drain_wake_pipe t =
  let junk = Bytes.create 64 in
  let rec loop () =
    match Unix.read t.wake_r junk 0 64 with
    | 0 -> ()
    | _ -> loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

let drain_completions t =
  let batch =
    Mutex.protect t.mu (fun () ->
        let xs = List.of_seq (Queue.to_seq t.completions) in
        Queue.clear t.completions;
        xs)
  in
  List.iter
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
    batch

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
    t.handler req (fun result ->
        Mutex.protect t.mu (fun () ->
            Queue.add (conn, req, result, t0_ns) t.completions);
        wake t)
  end

let handle_readable t conn =
  let chunk = Bytes.create 4096 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> conn.eof <- true
  | n ->
      let need = conn.rlen + n in
      if Bytes.length conn.rbuf < need then begin
        let bigger = Bytes.create (max need (2 * Bytes.length conn.rbuf)) in
        Bytes.blit conn.rbuf 0 bigger 0 conn.rlen;
        conn.rbuf <- bigger
      end;
      Bytes.blit chunk 0 conn.rbuf conn.rlen n;
      conn.rlen <- need;
      let rec parse () =
        if not conn.dead then
          match Wire.decode_request conn.rbuf ~len:conn.rlen with
          | Wire.Complete (req, consumed) ->
              Bytes.blit conn.rbuf consumed conn.rbuf 0 (conn.rlen - consumed);
              conn.rlen <- conn.rlen - consumed;
              dispatch t conn req;
              parse ()
          | Wire.Incomplete -> ()
          | Wire.Broken _ -> drop t conn
      in
      parse ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> drop t conn

let handle_writable t conn =
  let rec flush () =
    match Queue.peek_opt conn.out with
    | None -> ()
    | Some head -> (
        let remaining = Bytes.length head - conn.outpos in
        match Unix.write conn.fd head conn.outpos remaining with
        | n ->
            if n = remaining then begin
              ignore (Queue.pop conn.out);
              conn.outpos <- 0;
              flush ()
            end
            else conn.outpos <- conn.outpos + n
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> drop t conn)
  in
  flush ()

let accept_ready t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _peer ->
        Unix.set_nonblock fd;
        Hashtbl.replace t.conns fd
          {
            fd;
            rbuf = Bytes.create 4096;
            rlen = 0;
            out = Queue.create ();
            outpos = 0;
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
  let conns () = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let rec loop () =
    drain_wake_pipe t;
    drain_completions t;
    (* Reap connections with nothing left to do: peer gone and no response
       still owed or buffered. *)
    List.iter
      (fun c ->
        if c.eof && c.inflight = 0 && Queue.is_empty c.out then drop t c)
      (conns ());
    let stopping = Atomic.get t.stop in
    let pending_out = List.exists (fun c -> not (Queue.is_empty c.out)) (conns ()) in
    if stopping && t.inflight_total = 0 && not pending_out then ()
    else begin
      let reads =
        t.wake_r
        :: (if stopping then [] else [ t.listen_fd ])
        @ List.filter_map
            (fun c -> if c.eof then None else Some c.fd)
            (conns ())
      in
      let writes =
        List.filter_map
          (fun c -> if Queue.is_empty c.out then None else Some c.fd)
          (conns ())
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
              | Some conn when not conn.dead -> handle_writable t conn
              | _ -> ())
            writable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  List.iter (fun c -> drop t c) (conns ());
  (try Unix.close t.listen_fd with _ -> ());
  (match t.sockaddr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with _ -> ())
  | _ -> ())
