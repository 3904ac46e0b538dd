(* Tests of the nvbench benchmark: its statistics, its seeded inputs, the
   load generator's re-send path, the oracle (and that it can fail), the
   in-process host against the real server, and the smoke and traced runs
   of the command itself. *)

open Nvbench_core
module Wire = Net.Wire

let server_exe = "../../../bin/nvkv_server.exe"
let nvbench_exe = "../nvbench.exe"

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let nearest_rank () =
  let a = Array.init 100 (fun i -> i + 1) in
  let check p want =
    Alcotest.(check int) (Printf.sprintf "p%g of 1..100" p) want (Stats.nearest_rank a p)
  in
  check 50. 50;
  check 99. 99;
  check 100. 100;
  check 0.5 1;
  check 0. 1;
  let thousand = Array.init 10_000 (fun i -> i) in
  Alcotest.(check int) "p99.9 of 10000 is rank 9990" 9989 (Stats.nearest_rank thousand 99.9);
  Alcotest.(check int) "ten beyond p99.9 of 10000" 10 (Stats.beyond ~n:10_000 99.9);
  Alcotest.(check int) "one sample" 7 (Stats.nearest_rank [| 7 |] 99.);
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-9)))
    "quartiles as statistics.quantiles(range(1, 11), n=4)" [ 2.75; 5.5; 8.25 ]
    [ q1; q2; q3 ];
  let win vs =
    let s = Stats.samples () in
    List.iter (Stats.add s) vs;
    s
  in
  Alcotest.(check (list (float 0.)))
    "per-window medians skip empty windows" [ 2.; 3.; 900. ]
    (Stats.per_window
       [| win [ 1; 2; 3 ]; win []; win [ 3; 3; 3 ]; win [ 900; 900; 900 ] |]
       50.);
  Alcotest.(check (float 1e-9)) "quietest quarter ignores stalled windows" 10.
    (Stats.quiet_low [ 10.; 11.; 10.; 12.; 11.; 10.; 40.; 45.; 50.; 11. ]);
  Alcotest.(check (float 1e-9)) "quietest quarter of rates" 101.
    (Stats.quiet_high [ 100.; 98.; 101.; 99.; 40.; 30.; 100.; 102.; 35.; 97. ]);
  Alcotest.(check (float 1e-9)) "at least one value" 7. (Stats.quiet_low [ 9.; 7. ])

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

let seeded_inputs () =
  let w = Workload.restart in
  let arrivals ?(round = 0) seed =
    Workload.arrivals w ~seed ~round ~duration_ns:500_000_000
  in
  Alcotest.(check (array int)) "same seed, same schedule" (arrivals 7) (arrivals 7);
  Alcotest.(check bool) "another seed, another schedule" false (arrivals 7 = arrivals 8);
  Alcotest.(check bool) "another round, another schedule" false
    (arrivals 7 = arrivals ~round:1 7);
  let n = Array.length (arrivals 7) in
  Alcotest.(check bool)
    (Printf.sprintf "about rate x duration arrivals (%d)" n)
    true
    (abs (n - 1000) < 150);
  let ops seed client =
    let s = Workload.stream w ~seed ~client in
    let pre = Workload.preload s in
    pre @ List.init 500 (fun _ -> Workload.next s)
  in
  Alcotest.(check bool) "same seed, same client stream" true (ops 3 5 = ops 3 5);
  Alcotest.(check bool) "clients get distinct streams" false (ops 3 5 = ops 3 6);
  Alcotest.(check bool) "another seed, another stream" false (ops 3 5 = ops 4 5);
  List.iter
    (function
      | Wire.Put (k, _) | Wire.Get k | Wire.Del k ->
          if k / w.Workload.keys_per_client <> 5 then
            Alcotest.failf "client 5 touched key %d outside its range" k
      | Wire.Enqueue v ->
          if Workload.producer v <> 5 then Alcotest.failf "value %d names another producer" v
      | _ -> ())
    (ops 3 5)

(* ------------------------------------------------------------------ *)
(* Re-sending over a dropped connection                                *)
(* ------------------------------------------------------------------ *)

(* An in-process Net.Server whose handler counts every copy of a request it
   receives; once, it cuts the generator's connection while answering. *)
let resend_after_drop () =
  let sock = "resend.sock" in
  let addr = Unix.ADDR_UNIX sock in
  let executed = Hashtbl.create 64 in
  let lg_ref = ref None in
  let dropped = ref None in
  let mu = Mutex.create () in
  let handler (req : Wire.request) k =
    let key = (req.Wire.client, req.Wire.seq) in
    let first =
      Mutex.protect mu (fun () ->
          let n = Option.value ~default:0 (Hashtbl.find_opt executed key) in
          Hashtbl.replace executed key (n + 1);
          n = 0)
    in
    if first && !dropped = None && req.Wire.seq = 3 && req.Wire.client = 0 then begin
      dropped := Some (key, Stats.now_ns ());
      (* cut the generator's connection for client 0 *)
      let lg = Option.get !lg_ref in
      match lg.Loadgen.conns.(0).Loadgen.fd with
      | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      | None -> ()
    end;
    k Wire.Done
  in
  let server = Net.Server.create ~addr handler in
  let serving = Domain.spawn (fun () -> Net.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.request_stop server;
      Domain.join serving)
    (fun () ->
      let lg = Loadgen.create ~addr ~nclients:4 in
      lg_ref := Some lg;
      let acks = Hashtbl.create 64 and dropped_req = ref None in
      lg.Loadgen.on_ack <-
        (fun r _ now ->
          let key = (r.Loadgen.client, r.Loadgen.seq) in
          Hashtbl.replace acks key
            (1 + Option.value ~default:0 (Hashtbl.find_opt acks key));
          match !dropped with
          | Some (k, _) when k = key -> dropped_req := Some (r, now)
          | _ -> ());
      let arrivals = Array.init 200 (fun i -> i * 1_000_000) in
      let late = Stats.samples () in
      Loadgen.open_loop lg ~tag:1 ~start:(Stats.now_ns ()) ~arrivals ~nclients:4
        ~next_op:(fun c -> Wire.Put (c, 1))
        ~late;
      Loadgen.close lg;
      Alcotest.(check bool) "the connection was dropped once" true (!dropped <> None);
      Alcotest.(check bool) "the generator reconnected" true (lg.Loadgen.drops >= 1);
      Alcotest.(check bool) "outstanding requests were re-sent" true (lg.Loadgen.resent >= 1);
      Alcotest.(check int) "every request answered once" 200 (Hashtbl.length acks);
      Hashtbl.iter
        (fun (c, s) n -> if n <> 1 then Alcotest.failf "(%d, %d) answered %d times" c s n)
        acks;
      Alcotest.(check bool) "the server saw re-sent copies" true
        (Hashtbl.fold (fun _ n acc -> acc || n > 1) executed false);
      (* The dropped request is timed from its due time, before the drop,
         and its first transmission is not reset by the re-send. *)
      let _, t_drop = Option.get !dropped in
      let r, t_ack = Option.get !dropped_req in
      Alcotest.(check int) "timed from the due time" r.Loadgen.due (Loadgen.start_of r);
      Alcotest.(check bool) "first sent before the drop" true (r.Loadgen.sent <= t_drop);
      Alcotest.(check bool) "latency spans the drop" true
        (t_ack - Loadgen.start_of r > t_ack - t_drop);
      Alcotest.(check int) "no stray responses" 0 lg.Loadgen.stray)

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let oracle_catches () =
  let fresh () = Oracle.create ~nclients:2 in
  let o = fresh () in
  Oracle.check o ~client:0 (Wire.Put (1, 10)) Wire.Done;
  Oracle.check o ~client:0 (Wire.Get 1) (Wire.Value 10);
  Oracle.check o ~client:0 (Wire.Del 1) Wire.Done;
  Oracle.check o ~client:0 (Wire.Get 1) Wire.Nothing;
  Oracle.check o ~client:0 (Wire.Del 1) Wire.Nothing;
  let v n = Workload.enq_value ~client:1 n in
  Oracle.check o ~client:1 (Wire.Enqueue (v 1)) Wire.Done;
  Oracle.check o ~client:1 (Wire.Enqueue (v 2)) Wire.Done;
  Oracle.check o ~client:0 Wire.Dequeue (Wire.Value (v 1));
  Oracle.finish o ~bindings:[] ~queued:[ v 2 ];
  Alcotest.(check bool) "a correct history passes" true (Oracle.ok o);
  let flags name f =
    let o = fresh () in
    f o;
    Alcotest.(check bool) name false (Oracle.ok o)
  in
  flags "wrong get" (fun o ->
      Oracle.check o ~client:0 (Wire.Put (1, 10)) Wire.Done;
      Oracle.check o ~client:0 (Wire.Get 1) (Wire.Value 11));
  flags "del of an absent key answered Done" (fun o ->
      Oracle.check o ~client:0 (Wire.Del 4) Wire.Done);
  flags "duplicate dequeue" (fun o ->
      Oracle.check o ~client:1 (Wire.Enqueue (v 1)) Wire.Done;
      Oracle.check o ~client:0 Wire.Dequeue (Wire.Value (v 1));
      Oracle.check o ~client:1 Wire.Dequeue (Wire.Value (v 1)));
  flags "producer order" (fun o ->
      Oracle.check o ~client:0 Wire.Dequeue (Wire.Value (v 2));
      Oracle.check o ~client:0 Wire.Dequeue (Wire.Value (v 1)));
  flags "lost enqueue" (fun o ->
      Oracle.check o ~client:1 (Wire.Enqueue (v 1)) Wire.Done;
      Oracle.finish o ~bindings:[] ~queued:[]);
  flags "final map differs" (fun o ->
      Oracle.check o ~client:0 (Wire.Put (1, 10)) Wire.Done;
      Oracle.finish o ~bindings:[ (1, 12) ] ~queued:[])

(* ------------------------------------------------------------------ *)
(* The host replica against the real server                            *)
(* ------------------------------------------------------------------ *)

let sequence () =
  let rng = Random.State.make [| 300 |] in
  let enqs = ref 0 in
  List.init 300 (fun _ ->
      let key = Random.State.int rng 16 in
      match Random.State.int rng 5 with
      | 0 -> Wire.Put (key, Random.State.int rng 1000)
      | 1 -> Wire.Get key
      | 2 -> Wire.Del key
      | 3 ->
          incr enqs;
          Wire.Enqueue !enqs
      | _ -> Wire.Dequeue)

let answers ~addr ops =
  let c = Net.Client.connect ~addr ~client:0 in
  let rs = List.map (Net.Client.call c) ops in
  Net.Client.close c;
  rs

let remove f = try Sys.remove f with Sys_error _ -> ()

let host_matches_server () =
  let ops = sequence () in
  remove "real.img";
  let ready, _ = Proc.start_blocking ~exe:server_exe ~image:"real.img" ~sock:"real.sock" in
  let real =
    Fun.protect ~finally:(fun () -> Proc.stop ready; remove "real.img") (fun () ->
        answers ~addr:(Unix.ADDR_UNIX "real.sock") ops)
  in
  remove "host.img";
  let host = Host.start ~image:"host.img" ~sock:"host.sock" () in
  let replica =
    Fun.protect ~finally:(fun () -> Host.stop host; remove "host.img") (fun () ->
        answers ~addr:(Unix.ADDR_UNIX "host.sock") ops)
  in
  List.iteri
    (fun i (op, (a, b)) ->
      if a <> b then
        Alcotest.failf "op %d (%s): server %s, host %s" i (Wire.op_to_string op)
          (Format.asprintf "%a" Wire.pp_result a)
          (Format.asprintf "%a" Wire.pp_result b))
    (List.combine ops (List.combine real replica));
  Alcotest.(check bool) "the sequence reads some values" true
    (List.exists (function Wire.Value _ -> true | _ -> false) real)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_flags_regressions () =
  let write path j = Json.to_file path j in
  let result v =
    Json.Obj
      [
        ("workload", Json.Str "kv_read");
        ( "end_to_end",
          Json.Obj
            [
              ("open_p50_us", Json.Obj [ ("value", Json.Num v); ("unit", Json.Str "us") ]);
              ( "throughput_ops_s",
                Json.Obj [ ("value", Json.Num 1000.); ("unit", Json.Str "ops/s") ] );
            ] );
      ]
  in
  let set dir values =
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    List.mapi
      (fun i v ->
        let f = Filename.concat dir (Printf.sprintf "r%d.json" i) in
        write f (result v);
        f)
      values
  in
  let bound name b better =
    Json.Obj
      [ ("name", Json.Str name); ("better", Json.Str better); ("bound", Json.Num b) ]
  in
  write "cmp-bounds.json"
    (Json.Obj
       [
         ( "end_to_end",
           Json.Arr
             [ bound "open_p50_us" 0.25 "lower"; bound "throughput_ops_s" 0.25 "higher" ] );
       ]);
  let parent = set "cmp-parent" [ 100.; 102.; 98. ] in
  let same = set "cmp-same" [ 110.; 104.; 101. ] in
  let worse = set "cmp-worse" [ 140.; 135.; 150. ] in
  let regressions files = snd (Compare.run ~bounds_file:"cmp-bounds.json" ~files) in
  Alcotest.(check int) "within the bound" 0 (regressions (parent @ same));
  Alcotest.(check int) "past the bound" 1 (regressions (parent @ worse));
  let summary, _ = Compare.run ~bounds_file:"cmp-bounds.json" ~files:parent in
  let median =
    Option.bind (Json.member "kv_read" summary) (Json.member "open_p50_us")
    |> Fun.flip Option.bind (Json.member "median")
  in
  Alcotest.(check bool) "median of the first set" true (median = Some (Json.Num 100.))

(* ------------------------------------------------------------------ *)
(* The command                                                         *)
(* ------------------------------------------------------------------ *)

(* Run nvbench; returns the exit code, the last stdout line and seconds. *)
let nvbench args =
  let argv =
    Array.of_list
      ([ nvbench_exe ] @ args
      @ [ "--server"; server_exe; "--work"; "nvbench-tmp"; "--out"; "nvbench-out" ])
  in
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_args_in nvbench_exe argv in
  let rec last acc = match input_line ic with l -> last l | exception End_of_file -> acc in
  let line = last "" in
  let code =
    match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1
  in
  (code, line, Unix.gettimeofday () -. t0)

let result_field line k =
  match Json.member k (Json.of_string line) with
  | Some v -> v
  | None -> Alcotest.failf "result line lacks %s: %s" k line

let smoke_run () =
  let code, line, secs = nvbench [ "run"; "--smoke" ] in
  Printf.printf "smoke run of all four workloads: %.1f s\n" secs;
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check bool) "correct" true (result_field line "correct" = Json.Bool true);
  Alcotest.(check bool) "nothing failed" true (result_field line "failed" = Json.Num 0.);
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun m ->
          match Json.member (w.name ^ "." ^ m) (result_field line "metrics") with
          | Some _ -> ()
          | None -> Alcotest.failf "%s.%s missing" w.name m)
        [
          "setup_s"; "open_p50_us"; "throughput_ops_s"; "space_amp"; "recovery_ms";
          "outage_ms";
        ])
    Workload.all;
  Alcotest.(check bool) "well under a minute" true (secs < 60.)

let sabotage_fails () =
  let code, line, _ = nvbench [ "run"; "--smoke"; "--sabotage"; "--workload"; "kv_read" ] in
  Alcotest.(check int) "a perturbed answer fails the run" 1 code;
  Alcotest.(check bool) "reported incorrect" true
    (result_field line "correct" = Json.Bool false)

let traced_run () =
  let code, line, _ =
    nvbench [ "--workload"; "restart"; "--seed"; "2"; "--smoke"; "--trace"; "1" ]
  in
  Alcotest.(check int) "exit code" 0 code;
  let metrics = result_field line "metrics" in
  List.iter
    (fun m ->
      if Json.member m metrics = None then Alcotest.failf "per-layer metric %s missing" m)
    [ "server.syscw_per_op"; "wire.decode_ns"; "service.wait_us"; "dedup.record_us";
      "exec.put_us"; "pmem.flushes_per_op"; "recovery.replay_ms"; "trace.overhead_frac" ];
  Alcotest.(check bool) "untraced metrics stay out" true
    (Json.member "open_p50_us" metrics = None);
  let spans = Json.of_file "nvbench-out/restart-seed2.trace.json" in
  let events =
    Json.member "traceEvents" spans |> Option.fold ~none:[] ~some:Json.to_list
  in
  Alcotest.(check bool) "the spans file loads and has events" true (events <> [])

let () =
  Alcotest.run "nvbench"
    [
      ("stats", [ Alcotest.test_case "nearest rank and quartiles" `Quick nearest_rank ]);
      ("inputs", [ Alcotest.test_case "seeded schedules and streams" `Quick seeded_inputs ]);
      ( "loadgen",
        [ Alcotest.test_case "re-send after a dropped connection" `Quick resend_after_drop ] );
      ("oracle", [ Alcotest.test_case "catches wrong answers" `Quick oracle_catches ]);
      ( "host",
        [ Alcotest.test_case "answers like the real server" `Quick host_matches_server ] );
      ( "compare",
        [
          Alcotest.test_case "flags regressions past the bound" `Quick
            compare_flags_regressions;
        ] );
      ( "command",
        [
          Alcotest.test_case "run --smoke" `Quick smoke_run;
          Alcotest.test_case "run --sabotage fails" `Quick sabotage_fails;
          Alcotest.test_case "traced run" `Quick traced_run;
        ] );
    ]
