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
    { Harness.seed = 42; case = kill_at; kill_at; kill_from; flush = `Eager;
      reqs = schedule }

let no_kill_case () =
  check_spec ~expect_kill:false
    { Harness.seed = 42; case = 0; kill_at = 0; kill_from = `Ready;
      flush = `Eager; reqs = schedule }

(* ------------------------------------------------------------------ *)
(* Manual sessions against a live server                               *)
(* ------------------------------------------------------------------ *)

let ok_server = function
  | Ok s -> s
  | Error Harness.Killed_before_ready ->
      Alcotest.fail "server killed before READY"
  | Error (Harness.Died msg) -> Alcotest.failf "server failed to start: %s" msg

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

(* [min_int] is an ordinary value.  A put and an enqueue of it are stored
   and read back; the enqueue of it is the last request before a kill -9,
   and the restart recovers it and reads both back again. *)
let min_int_values_survive_kill () =
  with_image (fun ~image ~sock ->
      let s = ok_server (Harness.start_server ~image ~sock ()) in
      Fun.protect
        ~finally:(fun () -> Harness.kill_server s.Harness.pid)
        (fun () ->
          let c = Client.connect ~addr:s.Harness.sockaddr ~client:0 in
          Alcotest.check result_t "put" Wire.Done
            (Client.call c (Wire.Put (1, min_int)));
          Alcotest.check result_t "enqueue" Wire.Done
            (Client.call c (Wire.Enqueue min_int));
          Alcotest.check result_t "get" (Wire.Value min_int)
            (Client.call c (Wire.Get 1));
          Alcotest.check result_t "dequeue" (Wire.Value min_int)
            (Client.call c Wire.Dequeue);
          Alcotest.check result_t "enqueue again" Wire.Done
            (Client.call c (Wire.Enqueue min_int));
          Client.close c);
      let s2 = ok_server (Harness.start_server ~image ~sock ()) in
      Fun.protect
        ~finally:(fun () -> ignore (Harness.stop_server s2.Harness.pid))
        (fun () ->
          let c2 = Client.connect ~addr:s2.Harness.sockaddr ~client:0 in
          Client.sync_seq c2;
          Alcotest.check result_t "get after restart" (Wire.Value min_int)
            (Client.call c2 (Wire.Get 1));
          Alcotest.check result_t "dequeue after restart" (Wire.Value min_int)
            (Client.call c2 Wire.Dequeue);
          Alcotest.check result_t "queue drained" Wire.Nothing
            (Client.call c2 Wire.Dequeue);
          Client.close c2))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let flip_bit path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.create 1 in
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      if Unix.read fd b 0 1 <> 1 then Alcotest.fail "short read";
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      if Unix.write fd b 0 1 <> 1 then Alcotest.fail "short write")

(* A superblock whose checksum fails is damage, not a fresh image: the
   restart must refuse it before READY and leave every byte past the
   superblock as it was, instead of formatting over the acked writes. *)
let damaged_superblock_refused () =
  with_image (fun ~image ~sock ->
      let s = ok_server (Harness.start_server ~image ~sock ()) in
      let c = Client.connect ~addr:s.Harness.sockaddr ~client:0 in
      Alcotest.check result_t "put" Wire.Done
        (Client.call c (Wire.Put (3, 30)));
      Client.close c;
      ignore (Harness.stop_server s.Harness.pid);
      let before = read_file image in
      flip_bit image 8;
      (match Harness.start_server ~image ~sock () with
      | Ok s2 ->
          ignore (Harness.stop_server s2.Harness.pid);
          Alcotest.failf "damaged image reached READY (fresh=%b)"
            s2.Harness.fresh
      | Error Harness.Killed_before_ready ->
          Alcotest.fail "server killed before READY"
      | Error (Harness.Died msg) ->
          Alcotest.(check string) "refused with exit 3"
            "server exited 3 before READY" msg);
      let after = read_file image in
      let tail s = String.sub s 64 (String.length s - 64) in
      Alcotest.(check int) "image size unchanged" (String.length before)
        (String.length after);
      Alcotest.(check bool) "image bytes from offset 64 unchanged" true
        (String.equal (tail before) (tail after)))

(* Out-of-range sizing flags are usage errors: the server exits non-zero
   before READY and never creates the image file. *)
let bad_flags_refused () =
  List.iter
    (fun (flag, start) ->
      with_image (fun ~image ~sock ->
          (match start ~image ~sock with
          | Ok s ->
              ignore (Harness.stop_server s.Harness.pid);
              Alcotest.failf "%s reached READY" flag
          | Error Harness.Killed_before_ready ->
              Alcotest.failf "%s: server killed before READY" flag
          | Error (Harness.Died _) -> ());
          Alcotest.(check bool)
            (flag ^ ": no image created") false (Sys.file_exists image)))
    [
      ("--workers 0", Harness.start_server ~workers:0 ());
      ("--nclients 0", Harness.start_server ~nclients:0 ());
      ("--size 0", Harness.start_server ~size:0 ());
    ]

(* The server's recovery budget refuses for real: started directly (the
   harness passes its own 2000 ms budget) on an existing image with a
   budget no recovery can meet, the server must exit 4 before READY. *)
let recovery_budget_refused () =
  with_image (fun ~image ~sock ->
      let s = ok_server (Harness.start_server ~image ~sock ()) in
      ignore (Harness.stop_server s.Harness.pid);
      let exe = Harness.server_exe () in
      let out_r, out_w = Unix.pipe () and err_r, err_w = Unix.pipe () in
      let pid =
        Unix.create_process exe
          [|
            exe; "--image"; image; "--unix"; sock; "--max-recovery-ms"; "0.001";
          |]
          Unix.stdin out_w err_w
      in
      Unix.close out_w;
      Unix.close err_w;
      let out = Unix.in_channel_of_descr out_r in
      let rec wait_ready () =
        match input_line out with
        | line when String.starts_with ~prefix:"READY" line ->
            ignore (Harness.stop_server pid);
            Alcotest.failf "server ignored its recovery budget: %s" line
        | _ -> wait_ready ()
        | exception End_of_file -> ()
      in
      wait_ready ();
      close_in out;
      let err = In_channel.input_all (Unix.in_channel_of_descr err_r) in
      Unix.close err_r;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 4 -> ()
      | _, Unix.WEXITED n -> Alcotest.failf "exited %d, expected 4" n
      | _ -> Alcotest.fail "died of a signal, expected exit 4");
      Alcotest.(check bool) "refusal names the budget" true
        (String.ends_with ~suffix:"budget 0.001 ms\n" err))

(* --coalesced across a kill: a READY-armed SIGKILL lands mid-schedule, the
   server restarts coalesced without the kill, and the one client re-sends
   the interrupted (client, seq).  One client and one request in flight make
   the sequential model exact.  Persistence op 225 lands inside the first
   Dequeue (the sixth request). *)
let coalesced_kill_point = 225

let coalesced_kill_recover () =
  with_image (fun ~image ~sock ->
      let start ~kill_at =
        ok_server
          (Harness.start_server ~kill_at ~extra_args:[ "--coalesced" ] ~image
             ~sock ())
      in
      let server = ref (start ~kill_at:coalesced_kill_point) in
      let kills = ref 0 in
      let c = Client.connect ~addr:!server.Harness.sockaddr ~client:0 in
      let rec send_seq seq op =
        match Client.call_seq c ~seq op with
        | result -> result
        | exception (Unix.Unix_error _ | End_of_file) ->
            (match Unix.waitpid [] !server.Harness.pid with
            | _, Unix.WSIGNALED sg when sg = Sys.sigkill && !kills = 0 -> ()
            | _ -> Alcotest.fail "server died other than by its armed kill");
            incr kills;
            server := start ~kill_at:0;
            Alcotest.(check bool) "restart attaches" false
              !server.Harness.fresh;
            send_seq seq op
      in
      Fun.protect
        ~finally:(fun () ->
          Client.close c;
          try ignore (Harness.stop_server !server.Harness.pid) with _ -> ())
        (fun () ->
          let map_model = Hashtbl.create 8 and queue_model = Queue.create () in
          let last = ref (0, Wire.Ping, Wire.Done) in
          List.iter
            (fun op ->
              let seq = Client.seq c + 1 in
              Client.set_seq c seq;
              let expected =
                match op with
                | Wire.Put (k, v) ->
                    Hashtbl.replace map_model k v;
                    Wire.Done
                | Wire.Get k -> (
                    match Hashtbl.find_opt map_model k with
                    | Some v -> Wire.Value v
                    | None -> Wire.Nothing)
                | Wire.Enqueue v ->
                    Queue.add v queue_model;
                    Wire.Done
                | Wire.Dequeue -> (
                    match Queue.take_opt queue_model with
                    | Some v -> Wire.Value v
                    | None -> Wire.Nothing)
                | _ -> assert false
              in
              let result = send_seq seq op in
              Alcotest.check result_t (Wire.op_to_string op) expected result;
              last := (seq, op, result))
            [
              Wire.Put (1, 10); Wire.Enqueue 100; Wire.Put (2, 20);
              Wire.Enqueue 101; Wire.Put (1, 11); Wire.Dequeue;
              Wire.Put (3, 30); Wire.Enqueue 102; Wire.Get 1; Wire.Dequeue;
            ];
          Alcotest.(check int) "the armed kill fired once" 1 !kills;
          let seq, op, recorded = !last in
          Alcotest.check result_t "re-sent last request gets its answer"
            recorded (send_seq seq op);
          Hashtbl.iter
            (fun k v ->
              Alcotest.check result_t "acked put is visible" (Wire.Value v)
                (Client.call c (Wire.Get k)))
            map_model;
          Queue.iter
            (fun v ->
              Alcotest.check result_t "acked enqueue is visible in order"
                (Wire.Value v) (Client.call c Wire.Dequeue))
            queue_model;
          Alcotest.check result_t "queue drained" Wire.Nothing
            (Client.call c Wire.Dequeue)))

(* A 64 MiB image, the size nvbench serves, is formatted with the map
   sized from the device (1024 buckets; every other test here runs the
   2 MiB default and 64).  Puts, overwrites and deletes are acked, the
   server is killed with SIGKILL, and the restart attaches with the
   persisted count: every acked key reads back. *)
let large_image_kill_recover () =
  with_image (fun ~image ~sock ->
      let size = 64 lsl 20 and keys = 3000 in
      let model = Hashtbl.create keys in
      let s = ok_server (Harness.start_server ~size ~image ~sock ()) in
      Fun.protect
        ~finally:(fun () -> Harness.kill_server s.Harness.pid)
        (fun () ->
          let c = Client.connect ~addr:s.Harness.sockaddr ~client:0 in
          for k = 0 to keys - 1 do
            Alcotest.check result_t "put" Wire.Done
              (Client.call c (Wire.Put (k, k * 7)));
            Hashtbl.replace model k (k * 7)
          done;
          for k = 0 to (keys / 3) - 1 do
            Alcotest.check result_t "overwrite" Wire.Done
              (Client.call c (Wire.Put (3 * k, -k)));
            Hashtbl.replace model (3 * k) (-k);
            Alcotest.check result_t "delete" Wire.Done
              (Client.call c (Wire.Del ((3 * k) + 1)));
            Hashtbl.remove model ((3 * k) + 1)
          done;
          Client.close c);
      (* The directory block the root points at holds the bucket count at
         +32 (bin/nvkv_server.ml's [write_dir]). *)
      let buckets =
        let backend = Nvram.Backend.file ~path:image ~size () in
        Fun.protect
          ~finally:(fun () -> Nvram.Backend.close backend)
          (fun () ->
            let pmem = Nvram.Pmem.create ~backend ~size () in
            match Runtime.System.image_root pmem with
            | Some dir -> Nvram.Pmem.read_int pmem (Nvram.Offset.add dir 32)
            | None -> Alcotest.fail "the killed image has no root")
      in
      Alcotest.(check int) "buckets sized from the device"
        (Recoverable.Rmap.buckets_for_device size)
        buckets;
      let s2 = ok_server (Harness.start_server ~size ~image ~sock ()) in
      Fun.protect
        ~finally:(fun () -> ignore (Harness.stop_server s2.Harness.pid))
        (fun () ->
          Alcotest.(check bool) "restart attaches" false s2.Harness.fresh;
          let c = Client.connect ~addr:s2.Harness.sockaddr ~client:0 in
          Client.sync_seq c;
          for k = 0 to keys - 1 do
            let expected =
              match Hashtbl.find_opt model k with
              | Some v -> Wire.Value v
              | None -> Wire.Nothing
            in
            Alcotest.check result_t
              (Printf.sprintf "key %d after kill -9" k)
              expected
              (Client.call c (Wire.Get k))
          done;
          Client.close c))

(* ------------------------------------------------------------------ *)
(* Gets on the event loop: the flush budget and a kill at every point   *)
(* ------------------------------------------------------------------ *)

let stat stats k =
  match List.assoc_opt k stats with
  | Some v -> v
  | None -> Alcotest.failf "STATS line has no %s field" k

(* The STATS totals of a one-worker server on a fresh image that served
   [reqs] — (seq, op) pairs of client 0, a repeated seq being a re-send —
   and then stopped gracefully.  [kill_at] arms a kill from READY; the
   result is then [None] when the kill cut the session off. *)
let session ?(coalesced = false) ?(kill_at = 0) reqs =
  with_image (fun ~image ~sock ->
      let extra_args = if coalesced then [ "--coalesced" ] else [] in
      let s =
        ok_server (Harness.start_server ~kill_at ~extra_args ~image ~sock ())
      in
      let c = Client.connect ~addr:s.Harness.sockaddr ~client:0 in
      match List.iter (fun (seq, op) -> ignore (Client.call_seq c ~seq op)) reqs with
      | exception (Unix.Unix_error _ | End_of_file) ->
          Client.close c;
          (match Unix.waitpid [] s.Harness.pid with
          | _, Unix.WSIGNALED sg when sg = Sys.sigkill -> ()
          | _ -> Alcotest.fail "server died other than by its armed kill");
          None
      | () ->
          Client.close c;
          (match Harness.stop_server s.Harness.pid with
          | Unix.WEXITED 0 -> ()
          | _ -> Alcotest.fail "graceful stop failed");
          Some (stats_line s))

let stats_of = function
  | Some stats -> stats
  | None -> Alcotest.fail "a kill-free session was cut off"

(* A get is answered on the event loop with no stack frame: its only
   persistent effect is its dedup record, one device write and one flush,
   and it runs no [Exec] operation.  Two fresh images, one put against
   one put and 50 gets (present and absent keys), differ by exactly that. *)
let get_budget () =
  let put = [ (1, Wire.Put (1, 10)) ] in
  let gets = List.init 50 (fun i -> (i + 2, Wire.Get (i mod 2))) in
  let base = stats_of (session put)
  and served = stats_of (session (put @ gets)) in
  let diff k = stat served k - stat base k in
  Alcotest.(check int) "50 gets answered" 50 (diff "requests");
  Alcotest.(check int) "one flush per get" 50 (diff "flushes");
  Alcotest.(check int) "one device write per get" 50 (diff "writes");
  Alcotest.(check int) "no Exec op for a get" 0 (diff "ops")

(* The kill sweep's schedule.  [run_spec]'s duplicate probe re-sends the
   last get, which the dedup record answers without a persistence op. *)
let sweep_reqs = [ (0, Wire.Put (1, 10)); (0, Wire.Get 1); (0, Wire.Get 2) ]

(* A SIGKILL at every persistence point K = 1..N of put / get / get /
   re-sent get, N counted from a kill-free session (each write and each
   flush call is one point).  The count is checked exact first: a kill at
   N cuts the last get off, a kill at N + 1 lets the session finish.
   Every K must fire, and the recovered server must pass [run_spec]'s
   oracle. *)
let get_kill_sweep coalesced () =
  let session_reqs =
    List.mapi (fun i (_, op) -> (i + 1, op)) sweep_reqs
    @ [ (List.length sweep_reqs, snd (List.nth sweep_reqs 2)) ]
  in
  let points reqs =
    let stats = stats_of (session ~coalesced reqs) in
    stat stats "writes" + stat stats "flushes"
  in
  let n = points session_reqs - points [] in
  Alcotest.(check bool) "a kill at N cuts the session off" true
    (session ~coalesced ~kill_at:n session_reqs = None);
  Alcotest.(check bool) "a kill at N + 1 lets it finish" true
    (session ~coalesced ~kill_at:(n + 1) session_reqs <> None);
  for kill_at = 1 to n do
    check_spec
      {
        Harness.seed = 0;
        case = kill_at;
        kill_at;
        kill_from = `Ready;
        flush = (if coalesced then `Coalesced else `Eager);
        reqs = sweep_reqs;
      }
  done

let reproducer_text_roundtrips () =
  let spec =
    { Harness.seed = 7; case = 3; kill_at = 17; kill_from = `Startup;
      flush = `Eager; reqs = schedule }
  in
  match Harness.spec_of_string (Harness.spec_to_string spec) with
  | Ok parsed -> Alcotest.(check bool) "spec round-trips" true (parsed = spec)
  | Error msg -> Alcotest.failf "spec_of_string: %s" msg

(* Each malformed line is refused with an [Error] that names it: no
   [Failure "int_of_string"] escapes, and an unknown kill origin is not
   read as [ready]. *)
let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let reproducer_text_rejects_malformed () =
  List.iter
    (fun line ->
      match Harness.spec_of_string ("server-repro v1\nseed 1\n" ^ line) with
      | exception e ->
          Alcotest.failf "%S raised %s" line (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%S accepted" line
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S named in %S" line msg)
            true
            (contains msg line))
    [
      "seed x";
      "case 3a";
      "kill five ready";
      "kill 5 redy";
      "req c get 1";
      "req -1 get 1";
      "req 0 frobnicate 1";
    ]

(* The flush line: absent means eager, so older reproducers replay
   unchanged; a coalesced spec round-trips; an unknown mode is refused. *)
let reproducer_flush_line () =
  let spec =
    { Harness.seed = 1; case = 2; kill_at = 3; kill_from = `Ready;
      flush = `Coalesced; reqs = schedule }
  in
  let text = Harness.spec_to_string spec in
  Alcotest.(check bool) "coalesced spec names its mode" true
    (contains text "\nflush coalesced\n");
  (match Harness.spec_of_string text with
  | Ok parsed -> Alcotest.(check bool) "spec round-trips" true (parsed = spec)
  | Error msg -> Alcotest.failf "spec_of_string: %s" msg);
  (match Harness.spec_of_string "server-repro v1\nseed 1\nkill 3 ready\n" with
  | Ok parsed ->
      Alcotest.(check bool) "no flush line is eager" true
        (parsed.Harness.flush = `Eager)
  | Error msg -> Alcotest.failf "spec_of_string: %s" msg);
  match Harness.spec_of_string "server-repro v1\nflush turbo\n" with
  | Ok _ -> Alcotest.fail "flush turbo accepted"
  | Error msg ->
      Alcotest.(check bool) "the bad line is named" true
        (contains msg "flush turbo")

let () =
  Alcotest.run "server"
    [
      ( "kill-recover",
        [
          (* Four seeded SIGKILL points while serving.  All four land
             inside the first request, a put that makes persistence ops
             1-42 from READY, at different depths of its nested calls; the
             "gets" sweeps below kill at every point of a put and two
             gets. *)
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
          Alcotest.test_case "min_int values survive kill -9" `Slow
            min_int_values_survive_kill;
          Alcotest.test_case "unknown client refused" `Slow
            unknown_client_refused;
          Alcotest.test_case "damaged superblock refused" `Slow
            damaged_superblock_refused;
          Alcotest.test_case "out-of-range flags refused" `Quick
            bad_flags_refused;
          Alcotest.test_case "recovery budget refused" `Slow
            recovery_budget_refused;
          Alcotest.test_case "coalesced kill-recover" `Slow
            coalesced_kill_recover;
          Alcotest.test_case "reproducer text round-trips" `Quick
            reproducer_text_roundtrips;
          Alcotest.test_case "64 MiB image survives kill -9" `Slow
            large_image_kill_recover;
          Alcotest.test_case "reproducer text rejects malformed lines" `Quick
            reproducer_text_rejects_malformed;
          Alcotest.test_case "reproducer flush line" `Quick
            reproducer_flush_line;
        ] );
      ( "gets",
        [
          Alcotest.test_case "a get costs one flush and one write" `Slow
            get_budget;
          Alcotest.test_case "kill at every point of put and gets (eager)"
            `Slow (get_kill_sweep false);
          Alcotest.test_case "kill at every point of put and gets (coalesced)"
            `Slow (get_kill_sweep true);
        ] );
    ]
