(* Wire-codec property tests: round-trip every constructor, then attack
   the framing — truncation, bit flips, forged lengths, wrong kinds,
   verified-but-senseless payloads.  The decoder's contract is that every
   damaged input is a [Broken _] value and every proper prefix of a valid
   frame is [Incomplete]; nothing in this file may make it raise.  Mirrors
   the Frame-v2 adversary style of [test_scrub.ml], lifted to the wire. *)

module Wire = Net.Wire
module Integrity = Nvram.Integrity

let any_int = QCheck2.Gen.(frequency [ (4, small_signed_int); (1, int) ])

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        return Wire.Ping;
        map2 (fun k v -> Wire.Put (k, v)) any_int any_int;
        map (fun k -> Wire.Get k) any_int;
        map (fun k -> Wire.Del k) any_int;
        map (fun v -> Wire.Enqueue v) any_int;
        return Wire.Dequeue;
        return Wire.Last_seq;
      ])

let request_gen =
  QCheck2.Gen.(
    map3 (fun client seq op -> { Wire.client; seq; op }) any_int any_int op_gen)

let result_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Wire.Value v) any_int;
        return Wire.Nothing;
        return Wire.Done;
        map (fun code -> Wire.Refused code) (int_range 1 8);
      ])

let response_gen =
  QCheck2.Gen.(
    map3
      (fun client seq result -> { Wire.client; seq; result })
      any_int any_int result_gen)

let request_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"request round-trips through the codec"
    request_gen (fun req ->
      let frame = Wire.encode_request req in
      match Wire.decode_request frame ~len:(Bytes.length frame) with
      | Wire.Complete (decoded, consumed) ->
          decoded = req && consumed = Bytes.length frame
      | Wire.Incomplete | Wire.Broken _ -> false)

let response_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"response round-trips through the codec"
    response_gen (fun resp ->
      let frame = Wire.encode_response resp in
      match Wire.decode_response frame ~len:(Bytes.length frame) with
      | Wire.Complete (decoded, consumed) ->
          decoded = resp && consumed = Bytes.length frame
      | Wire.Incomplete | Wire.Broken _ -> false)

let op_string_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"op_of_string inverts op_to_string"
    op_gen (fun op -> Wire.op_of_string (Wire.op_to_string op) = Some op)

(* A streaming reader sees frames back to back in one buffer: the decoder
   must consume exactly the first and leave the second intact, and decode
   the second in place from where the first ends. *)
let back_to_back =
  QCheck2.Test.make ~count:200 ~name:"concatenated frames split cleanly"
    QCheck2.Gen.(pair request_gen request_gen)
    (fun (r1, r2) ->
      let f1 = Wire.encode_request r1 and f2 = Wire.encode_request r2 in
      let buf = Bytes.cat f1 f2 in
      match Wire.decode_request buf ~len:(Bytes.length buf) with
      | Wire.Complete (d1, n1) when d1 = r1 && n1 = Bytes.length f1 -> (
          match
            Wire.decode_request buf ~pos:n1 ~len:(Bytes.length buf - n1)
          with
          | Wire.Complete (d2, n2) -> d2 = r2 && n2 = Bytes.length f2
          | _ -> false)
      | _ -> false)

let every_prefix_incomplete =
  QCheck2.Test.make ~count:200
    ~name:"every strict prefix of a valid frame is Incomplete" request_gen
    (fun req ->
      let frame = Wire.encode_request req in
      let ok = ref true in
      for cut = 0 to Bytes.length frame - 1 do
        match Wire.decode_request frame ~len:cut with
        | Wire.Incomplete -> ()
        | Wire.Complete _ | Wire.Broken _ -> ok := false
      done;
      !ok)

(* The CRC trailer is the last 8 bytes; flipping any of them cannot touch
   the covered region, so the verdict is exactly Bad_crc. *)
let crc_flip_detected =
  QCheck2.Test.make ~count:300 ~name:"a flipped CRC byte is Broken Bad_crc"
    QCheck2.Gen.(triple request_gen (int_range 1 7) (int_range 1 255))
    (fun (req, tail, delta) ->
      let frame = Wire.encode_request req in
      let pos = Bytes.length frame - 1 - tail in
      let pos = max pos (Bytes.length frame - 8) in
      Bytes.set frame pos
        (Char.chr ((Char.code (Bytes.get frame pos) + delta) land 0xff));
      match Wire.decode_request frame ~len:(Bytes.length frame) with
      | Wire.Broken Wire.Bad_crc -> true
      | _ -> false)

(* Any single-byte corruption anywhere in the frame: the decoder may call
   it Broken or (when the flip grows the declared length) Incomplete, but
   it must never reproduce the original parse and never raise.  FNV-64 is
   a bijection per input byte, so a flip inside the covered region always
   changes the checksum. *)
let byte_flip_never_original =
  QCheck2.Test.make ~count:500
    ~name:"single-byte corruption never yields the original frame"
    QCheck2.Gen.(triple request_gen (int_range 0 1_000_000) (int_range 1 255))
    (fun (req, pos_seed, delta) ->
      let frame = Wire.encode_request req in
      let len = Bytes.length frame in
      let pos = pos_seed mod len in
      Bytes.set frame pos
        (Char.chr ((Char.code (Bytes.get frame pos) + delta) land 0xff));
      match Wire.decode_request frame ~len with
      | Wire.Complete (decoded, _) -> decoded <> req
      | Wire.Incomplete | Wire.Broken _ -> true)

let magic_flip =
  QCheck2.Test.make ~count:100 ~name:"wrong magic is Broken Bad_magic"
    request_gen (fun req ->
      let frame = Wire.encode_request req in
      Bytes.set frame 0 'X';
      let whole =
        match Wire.decode_request frame ~len:(Bytes.length frame) with
        | Wire.Broken Wire.Bad_magic -> true
        | _ -> false
      in
      (* Progressive: one corrupt byte is judged without waiting for the
         rest of the header. *)
      let early =
        match Wire.decode_request frame ~len:1 with
        | Wire.Broken Wire.Bad_magic -> true
        | _ -> false
      in
      whole && early)

let version_flip =
  QCheck2.Test.make ~count:100 ~name:"wrong version is Broken Bad_version"
    request_gen (fun req ->
      let frame = Wire.encode_request req in
      Bytes.set frame 2 (Char.chr 9);
      match Wire.decode_request frame ~len:(Bytes.length frame) with
      | Wire.Broken (Wire.Bad_version 9) -> true
      | _ -> false)

let kind_mismatch =
  QCheck2.Test.make ~count:100
    ~name:"a response frame fed to the request decoder is Bad_kind"
    response_gen (fun resp ->
      let frame = Wire.encode_response resp in
      match Wire.decode_request frame ~len:(Bytes.length frame) with
      | Wire.Broken (Wire.Bad_kind 2) -> true
      | _ -> false)

let oversized_length =
  QCheck2.Test.make ~count:200
    ~name:"forged payload length out of range is Broken Oversized"
    QCheck2.Gen.(pair request_gen (int_range 1 1_000_000))
    (fun (req, excess) ->
      let frame = Wire.encode_request req in
      let too_big = Bytes.copy frame in
      Bytes.set_int32_le too_big 4 (Int32.of_int (Wire.max_payload + excess));
      let negative = Bytes.copy frame in
      Bytes.set_int32_le negative 4 (-1l);
      let broken_oversized buf =
        match Wire.decode_request buf ~len:(Bytes.length buf) with
        | Wire.Broken (Wire.Oversized _) -> true
        | _ -> false
      in
      broken_oversized too_big && broken_oversized negative)

(* Hand-built frames with a valid CRC but a payload that parses to
   nothing: the frame layer accepts them, the request layer must refuse
   with Malformed rather than guess. *)
let forged_request ~plen fill =
  let buf = Bytes.create (Wire.overhead + plen) in
  Bytes.set buf 0 'N';
  Bytes.set buf 1 'K';
  Bytes.set buf 2 (Char.chr 1);
  Bytes.set buf 3 (Char.chr 1);
  Bytes.set_int32_le buf 4 (Int32.of_int plen);
  fill buf 8;
  Bytes.set_int64_le buf (8 + plen)
    (Integrity.fnv64 buf ~pos:0 ~len:(8 + plen));
  buf

let malformed_is_typed () =
  let is_malformed buf =
    match Wire.decode_request buf ~len:(Bytes.length buf) with
    | Wire.Broken (Wire.Malformed _) -> true
    | _ -> false
  in
  (* Too short for even the fixed request head. *)
  Alcotest.(check bool)
    "short payload" true
    (is_malformed (forged_request ~plen:8 (fun _ _ -> ())));
  (* Ragged operand bytes. *)
  Alcotest.(check bool)
    "ragged operands" true
    (is_malformed (forged_request ~plen:21 (fun b off ->
         Bytes.set b (off + 16) (Char.chr 0))));
  (* Unknown opcode. *)
  Alcotest.(check bool)
    "unknown opcode" true
    (is_malformed (forged_request ~plen:17 (fun b off ->
         Bytes.set b (off + 16) (Char.chr 9))));
  (* Known opcode with the wrong operand count (Put wants two). *)
  Alcotest.(check bool)
    "operand count mismatch" true
    (is_malformed (forged_request ~plen:17 (fun b off ->
         Bytes.set b (off + 16) (Char.chr 1))))

let garbage_never_raises =
  QCheck2.Test.make ~count:500 ~name:"random garbage never raises"
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun junk ->
      let buf = Bytes.of_string junk in
      let len = Bytes.length buf in
      let _ = Wire.decode_request buf ~len in
      let _ = Wire.decode_response buf ~len in
      true)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      request_roundtrip;
      response_roundtrip;
      op_string_roundtrip;
      back_to_back;
      every_prefix_incomplete;
      crc_flip_detected;
      byte_flip_never_original;
      magic_flip;
      version_flip;
      kind_mismatch;
      oversized_length;
      garbage_never_raises;
    ]

(* ------------------------------------------------------------------ *)
(* The event loop in process                                           *)
(* ------------------------------------------------------------------ *)

(* A worker domain that runs the thunks it is handed, in order. *)
type worker = {
  jobs : (unit -> unit) option Queue.t;
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable domain : unit Domain.t option;
}

let start_worker () =
  let w =
    {
      jobs = Queue.create ();
      mu = Mutex.create ();
      nonempty = Condition.create ();
      domain = None;
    }
  in
  let rec run () =
    Mutex.lock w.mu;
    while Queue.is_empty w.jobs do
      Condition.wait w.nonempty w.mu
    done;
    let job = Queue.pop w.jobs in
    Mutex.unlock w.mu;
    match job with
    | Some f ->
        f ();
        run ()
    | None -> ()
  in
  w.domain <- Some (Domain.spawn run);
  w

let post w job =
  Mutex.protect w.mu (fun () -> Queue.add job w.jobs);
  Condition.signal w.nonempty

let stop_worker w =
  post w None;
  Option.iter Domain.join w.domain

let answer_of (req : Wire.request) =
  Wire.Value ((req.Wire.client * 1_000_000) + req.Wire.seq)

let write_all fd buf =
  let rec go off =
    if off < Bytes.length buf then
      go (off + Unix.write fd buf off (Bytes.length buf - off))
  in
  go 0

(* Read responses until [n] have arrived; count how often each seq is
   answered and check every answer. *)
let read_responses fd ~client ~n =
  let counts = Hashtbl.create n in
  let buf = ref (Bytes.create 65536) and len = ref 0 and got = ref 0 in
  while !got < n do
    if !len = Bytes.length !buf then begin
      let bigger = Bytes.create (2 * Bytes.length !buf) in
      Bytes.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    let r = Unix.read fd !buf !len (Bytes.length !buf - !len) in
    if r = 0 then Alcotest.failf "server closed after %d of %d answers" !got n;
    len := !len + r;
    let rec parse () =
      match Wire.decode_response !buf ~len:!len with
      | Wire.Complete (resp, consumed) ->
          Bytes.blit !buf consumed !buf 0 (!len - consumed);
          len := !len - consumed;
          incr got;
          if resp.Wire.client <> client then
            Alcotest.failf "answer for client %d on client %d's connection"
              resp.Wire.client client;
          let expected =
            answer_of { Wire.client; seq = resp.Wire.seq; op = Wire.Ping }
          in
          if resp.Wire.result <> expected then
            Alcotest.failf "seq %d answered %s" resp.Wire.seq
              (Format.asprintf "%a" Wire.pp_result resp.Wire.result);
          Hashtbl.replace counts resp.Wire.seq
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts resp.Wire.seq));
          parse ()
      | Wire.Incomplete -> ()
      | Wire.Broken e ->
          Alcotest.failf "response stream broken: %a" Wire.pp_error e
    in
    parse ()
  done;
  if !len <> 0 then Alcotest.failf "%d stray bytes after the answers" !len;
  counts

(* A lost answer fails the read after 30 s instead of hanging the test. *)
let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  fd

(* Two connections against one in-process server.  Client 1 sends
   requests the handler holds back, and closes its connection while they
   are still in flight; they complete afterwards on the worker domains.
   Client 0 then writes [pipelined] requests before reading any answer,
   more than the socket buffers hold in both directions, so the loop must
   keep reading while its writes fall short.  Its requests complete
   synchronously on the loop thread (seq mod 3 = 0) or on one of two
   worker domains, and every seq must be answered exactly once. *)
let pipelined = 16_000
let held_back = 64

let loop_serves_pipelined_and_survives_close () =
  let path = Filename.temp_file "nvkv_loop" ".sock" in
  Sys.remove path;
  let workers = [| start_worker (); start_worker () |] in
  let held = ref [] and held_mu = Mutex.create () in
  let handler (req : Wire.request) k =
    let answer () = k (answer_of req) in
    if req.Wire.client = 1 then
      Mutex.protect held_mu (fun () -> held := answer :: !held)
    else
      match req.Wire.seq mod 3 with
      | 0 -> answer ()
      | i -> post workers.(i - 1) (Some answer)
  in
  let server = Net.Server.create ~addr:(Unix.ADDR_UNIX path) handler in
  let loop = Domain.spawn (fun () -> Net.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.request_stop server;
      Domain.join loop;
      Array.iter stop_worker workers;
      try Sys.remove path with _ -> ())
    (fun () ->
      let doomed = connect_unix path in
      for seq = 1 to held_back do
        write_all doomed
          (Wire.encode_request { Wire.client = 1; seq; op = Wire.Get seq })
      done;
      let rec await tries =
        let n = Mutex.protect held_mu (fun () -> List.length !held) in
        if n < held_back then
          if tries = 0 then Alcotest.failf "only %d held requests arrived" n
          else begin
            Unix.sleepf 0.01;
            await (tries - 1)
          end
      in
      await 1000;
      Unix.close doomed;
      let fd = connect_unix path in
      let reqs = Buffer.create (pipelined * 48) in
      for seq = 1 to pipelined do
        Buffer.add_bytes reqs
          (Wire.encode_request { Wire.client = 0; seq; op = Wire.Get seq })
      done;
      (* The held answers complete while client 0's requests stream in. *)
      let release =
        Domain.spawn (fun () ->
            Unix.sleepf 0.005;
            let answers = Mutex.protect held_mu (fun () -> !held) in
            List.iteri (fun i a -> post workers.(i mod 2) (Some a)) answers)
      in
      write_all fd (Buffer.to_bytes reqs);
      let counts = read_responses fd ~client:0 ~n:pipelined in
      Domain.join release;
      Unix.close fd;
      for seq = 1 to pipelined do
        match Hashtbl.find_opt counts seq with
        | Some 1 -> ()
        | Some n -> Alcotest.failf "seq %d answered %d times" seq n
        | None -> Alcotest.failf "seq %d never answered" seq
      done;
      Alcotest.(check int) "no answer for an unsent seq" pipelined
        (Hashtbl.length counts))

(* A connection that closes without sending anything, and one that sends
   a broken frame, are dropped without disturbing a third one. *)
let loop_drops_broken_connections () =
  let path = Filename.temp_file "nvkv_loop" ".sock" in
  Sys.remove path;
  let server =
    Net.Server.create ~addr:(Unix.ADDR_UNIX path) (fun req k ->
        k (answer_of req))
  in
  let loop = Domain.spawn (fun () -> Net.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.request_stop server;
      Domain.join loop;
      try Sys.remove path with _ -> ())
    (fun () ->
      Unix.close (connect_unix path);
      let broken = connect_unix path in
      write_all broken (Bytes.of_string "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX");
      let fd = connect_unix path in
      for seq = 1 to 100 do
        write_all fd
          (Wire.encode_request { Wire.client = 2; seq; op = Wire.Dequeue })
      done;
      let counts = read_responses fd ~client:2 ~n:100 in
      Alcotest.(check int) "every seq answered" 100 (Hashtbl.length counts);
      (* The broken connection was dropped: the server closed its end. *)
      let b = Bytes.create 1 in
      Alcotest.(check int) "broken frame closes the connection" 0
        (Unix.read broken b 0 1);
      Unix.close broken;
      Unix.close fd)

let () =
  Alcotest.run "net"
    [
      ("wire-codec", properties);
      ( "wire-malformed",
        [ Alcotest.test_case "typed Malformed errors" `Quick malformed_is_typed ]
      );
      ( "event-loop",
        [
          Alcotest.test_case "pipelined answers survive a closed peer" `Quick
            loop_serves_pipelined_and_survives_close;
          Alcotest.test_case "broken connections are dropped" `Quick
            loop_drops_broken_connections;
        ] );
    ]
