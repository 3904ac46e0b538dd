(* End-to-end crash-kill-recover tests for [bin/nvkv_server]: real server
   processes over a Unix socket, SIGKILLed at deterministic persistence
   points (the paper's Section 5.2 methodology at the network layer),
   restarted, and checked against an exact sequential model by
   [Net.Harness].  Every failure prints the replayable reproducer text so
   a broken case can be re-run with [crash_fuzzer --replay]. *)

module Harness = Net.Harness
module Client = Net.Client
module Wire = Net.Wire

let result_t = Alcotest.testable Wire.pp_result ( = )

(* A fixed schedule touching both structures and both clients: puts that
   overwrite, deletes, interleaved enqueues (FIFO order matters), and
   dequeues that race the kill point. *)
let schedule =
  [
    (0, Wire.Put (1, 10));
    (1, Wire.Put (2, 20));
    (0, Wire.Get 1);
    (1, Wire.Enqueue 100);
    (0, Wire.Enqueue 101);
    (1, Wire.Dequeue);
    (0, Wire.Del 2);
    (1, Wire.Get 2);
    (0, Wire.Put (1, 11));
    (1, Wire.Enqueue 102);
    (0, Wire.Dequeue);
    (1, Wire.Get 1);
  ]

let check_spec ?(expect_kill = true) spec =
  match Harness.run_spec spec with
  | Ok { Harness.restarts } ->
      if expect_kill && restarts = 0 then
        Alcotest.failf
          "kill at persistence op %d never fired — the case is vacuous"
          spec.Harness.kill_at;
      if (not expect_kill) && restarts > 0 then
        Alcotest.failf "unexpected server death (%d restart(s))" restarts
  | Error msg ->
      Alcotest.failf "violation: %s@.reproducer:@.%s" msg
        (Harness.spec_to_string spec)

let kill_case kill_at kill_from () =
  check_spec
    { Harness.seed = 42; case = kill_at; kill_at; kill_from; reqs = schedule }

let no_kill_case () =
  check_spec ~expect_kill:false
    { Harness.seed = 42; case = 0; kill_at = 0; kill_from = `Ready;
      reqs = schedule }

(* ------------------------------------------------------------------ *)
(* Manual sessions against a live server                               *)
(* ------------------------------------------------------------------ *)

let ok_server = function
  | Ok s -> s
  | Error msg -> Alcotest.failf "server failed to start: %s" msg

let with_image f =
  let image = Filename.temp_file "nvkv_e2e" ".img" in
  Sys.remove image;
  let sock = image ^ ".sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove image with _ -> ());
      try Sys.remove sock with _ -> ())
    (fun () -> f ~image ~sock)

(* The [STATS] line a graceful stop prints, as (field, value) pairs. *)
let stats_line s =
  let rec find () =
    match input_line s.Harness.output with
    | line when String.length line > 6 && String.sub line 0 6 = "STATS " ->
        List.filter_map
          (fun word ->
            match String.split_on_char '=' word with
            | [ k; v ] -> Some (k, int_of_string v)
            | _ -> None)
          (String.split_on_char ' ' line)
    | _ -> find ()
    | exception End_of_file -> Alcotest.fail "no STATS line before exit"
  in
  find ()

let graceful_stop_persists () =
  with_image (fun ~image ~sock ->
      let s = ok_server (Harness.start_server ~image ~sock ()) in
      Alcotest.(check bool) "first start creates the image" true
        s.Harness.fresh;
      let c = Client.connect ~addr:s.Harness.sockaddr ~client:0 in
      Alcotest.check result_t "put" Wire.Done (Client.call c (Wire.Put (7, 70)));
      Alcotest.check result_t "enqueue" Wire.Done
        (Client.call c (Wire.Enqueue 5));
      for k = 1 to 3 do
        Alcotest.check result_t "get" Wire.Nothing
          (Client.call c (Wire.Get (100 + k)))
      done;
      (* a verbatim retry is answered from the dedup record *)
      Alcotest.check result_t "retried get" Wire.Nothing
        (Client.call_seq c ~seq:(Client.seq c) (Wire.Get 103));
      Client.close c;
      (match Harness.stop_server s.Harness.pid with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "graceful stop exited %d" n
      | _ -> Alcotest.fail "graceful stop died of a signal");
      (* The counters are always on: without --obs the STATS line still
         reports the 5 requests + 1 retry, and the retry as a dedup hit. *)
      let stats = stats_line s in
      let field k =
        match List.assoc_opt k stats with
        | Some v -> v
        | None -> Alcotest.failf "STATS line has no %s field" k
      in
      Alcotest.(check bool) "STATS counts every request" true
        (field "requests" >= 6);
      Alcotest.(check bool) "STATS counts the dedup hit" true
        (field "dedup_hits" >= 1);
      Alcotest.(check bool) "STATS counts the connection" true
        (field "conns" >= 1);
      let s2 = ok_server (Harness.start_server ~image ~sock ()) in
      Alcotest.(check bool) "second start attaches" false s2.Harness.fresh;
      let c2 = Client.connect ~addr:s2.Harness.sockaddr ~client:0 in
      Client.sync_seq c2;
      Alcotest.(check bool) "sequence resumed past the old requests" true
        (Client.seq c2 >= 2);
      Alcotest.check result_t "value survived the stop" (Wire.Value 70)
        (Client.call c2 (Wire.Get 7));
      Alcotest.check result_t "queue survived the stop" (Wire.Value 5)
        (Client.call c2 Wire.Dequeue);
      Client.close c2;
      ignore (Harness.stop_server s2.Harness.pid))

let dedup_protocol () =
  with_image (fun ~image ~sock ->
      let s = ok_server (Harness.start_server ~image ~sock ()) in
      Fun.protect
        ~finally:(fun () -> ignore (Harness.stop_server s.Harness.pid))
        (fun () ->
          let c = Client.connect ~addr:s.Harness.sockaddr ~client:0 in
          Alcotest.check result_t "first put" Wire.Done
            (Client.call c (Wire.Put (1, 10)));
          Alcotest.check result_t "dequeue on empty" Wire.Nothing
            (Client.call c Wire.Dequeue);
          let seq = Client.seq c in
          (* A verbatim retry of the last request is answered from the
             dedup record: same answer, no re-execution. *)
          Alcotest.check result_t "retry replays the recorded answer"
            Wire.Nothing
            (Client.call_seq c ~seq Wire.Dequeue);
          (* An older sequence violates the retry protocol. *)
          Alcotest.check result_t "older seq is refused as stale"
            (Wire.Refused Wire.err_stale)
            (Client.call_seq c ~seq:(seq - 1) (Wire.Put (1, 99)));
          (* The stale refusal must not have executed: the value stands. *)
          Alcotest.check result_t "refused op did not run" (Wire.Value 10)
            (Client.call c (Wire.Get 1));
          Alcotest.check result_t "last-seq reports the dedup slot"
            (Wire.Value (Client.seq c))
            (Client.call_seq c ~seq:0 Wire.Last_seq);
          Client.close c))

let unknown_client_refused () =
  with_image (fun ~image ~sock ->
      let s =
        ok_server (Harness.start_server ~nclients:4 ~image ~sock ())
      in
      Fun.protect
        ~finally:(fun () -> ignore (Harness.stop_server s.Harness.pid))
        (fun () ->
          let c = Client.connect ~addr:s.Harness.sockaddr ~client:9 in
          Alcotest.check result_t "client outside the dedup table"
            (Wire.Refused Wire.err_unknown)
            (Client.call c (Wire.Put (1, 1)));
          Alcotest.check result_t "ping needs no identity" Wire.Done
            (Client.call c Wire.Ping);
          Client.close c))

let reproducer_text_roundtrips () =
  let spec =
    { Harness.seed = 7; case = 3; kill_at = 17; kill_from = `Startup;
      reqs = schedule }
  in
  match Harness.spec_of_string (Harness.spec_to_string spec) with
  | Ok parsed -> Alcotest.(check bool) "spec round-trips" true (parsed = spec)
  | Error msg -> Alcotest.failf "spec_of_string: %s" msg

let () =
  Alcotest.run "server"
    [
      ( "kill-recover",
        [
          (* Three distinct seeded SIGKILL points while serving: early
             (inside the first request's frame push), mid-schedule, and
             deep (inside the later dequeues / dedup records). *)
          Alcotest.test_case "kill at persistence op 3" `Slow
            (kill_case 3 `Ready);
          Alcotest.test_case "kill at persistence op 9" `Slow
            (kill_case 9 `Ready);
          Alcotest.test_case "kill at persistence op 17" `Slow
            (kill_case 17 `Ready);
          Alcotest.test_case "kill at persistence op 41" `Slow
            (kill_case 41 `Ready);
          (* Armed from process start: lands inside System.create, so the
             restart must decide fresh-vs-attach correctly on a
             half-created image. *)
          Alcotest.test_case "kill during startup op 2" `Slow
            (kill_case 2 `Startup);
          Alcotest.test_case "kill during startup op 6" `Slow
            (kill_case 6 `Startup);
          Alcotest.test_case "no kill (baseline)" `Slow no_kill_case;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "graceful stop persists" `Slow
            graceful_stop_persists;
          Alcotest.test_case "dedup retry protocol" `Slow dedup_protocol;
          Alcotest.test_case "unknown client refused" `Slow
            unknown_client_refused;
          Alcotest.test_case "reproducer text round-trips" `Quick
            reproducer_text_roundtrips;
        ] );
    ]
