type t = {
  addr : Unix.sockaddr;
  client : int;
  mutable fd : Unix.file_descr option;
  mutable seq : int;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
}

exception Protocol of string

let () =
  Printexc.register_printer (function
    | Protocol what -> Some (Printf.sprintf "Net.Client.Protocol(%S)" what)
    | _ -> None)

let connect ~addr ~client =
  (if Sys.os_type = "Unix" then
     try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  { addr; client; fd = None; seq = 0; rbuf = Bytes.create 4096; rlen = 0 }

let seq t = t.seq
let set_seq t seq = t.seq <- seq

let disconnect t =
  (match t.fd with None -> () | Some fd -> ( try Unix.close fd with _ -> ()));
  t.fd <- None;
  t.rlen <- 0

let close = disconnect

let ensure_conn t =
  match t.fd with
  | Some fd -> fd
  | None ->
      let fd = Unix.socket (Unix.domain_of_sockaddr t.addr) Unix.SOCK_STREAM 0 in
      (try Unix.connect fd t.addr
       with exn ->
         (try Unix.close fd with _ -> ());
         raise exn);
      t.fd <- fd |> Option.some;
      fd

let rec write_all fd buf off len =
  if len > 0 then
    let n =
      try Unix.write fd buf off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd buf (off + n) (len - n)

let grow t need =
  if Bytes.length t.rbuf < need then begin
    let bigger = Bytes.create (max need (2 * Bytes.length t.rbuf)) in
    Bytes.blit t.rbuf 0 bigger 0 t.rlen;
    t.rbuf <- bigger
  end

let read_response t fd ~seq =
  let chunk = Bytes.create 4096 in
  let rec loop () =
    match Wire.decode_response t.rbuf ~len:t.rlen with
    | Wire.Complete (resp, consumed) ->
        Bytes.blit t.rbuf consumed t.rbuf 0 (t.rlen - consumed);
        t.rlen <- t.rlen - consumed;
        if resp.Wire.client <> t.client || resp.Wire.seq <> seq then begin
          disconnect t;
          raise
            (Protocol
               (Printf.sprintf "response for (%d,%d), expected (%d,%d)"
                  resp.Wire.client resp.Wire.seq t.client seq))
        end;
        resp.Wire.result
    | Wire.Broken e ->
        disconnect t;
        raise (Protocol (Format.asprintf "%a" Wire.pp_error e))
    | Wire.Incomplete -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> raise End_of_file
        | n ->
            grow t (t.rlen + n);
            Bytes.blit chunk 0 t.rbuf t.rlen n;
            t.rlen <- n + t.rlen;
            loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

let call_seq t ~seq op =
  let fd = ensure_conn t in
  try
    let frame = Wire.encode_request { Wire.client = t.client; seq; op } in
    write_all fd frame 0 (Bytes.length frame);
    read_response t fd ~seq
  with
  | (Unix.Unix_error _ | End_of_file) as exn ->
      disconnect t;
      raise exn

let call t op =
  t.seq <- t.seq + 1;
  call_seq t ~seq:t.seq op

let sync_seq t =
  match call_seq t ~seq:t.seq Wire.Last_seq with
  | Wire.Value last -> t.seq <- max t.seq last
  | other ->
      raise
        (Protocol (Format.asprintf "last-seq answered %a" Wire.pp_result other))
