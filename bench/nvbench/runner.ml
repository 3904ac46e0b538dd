(* One benchmark run of one workload.

   The untraced pass drives the real bin/nvkv_server.exe as a separate
   process; every end-to-end metric comes from it.  After the preload and
   an untimed warm-up burst, the measured time is split into rounds of about
   two seconds, and every round repeats the same steps:

   - set-up: a fresh start on an empty 64 MiB image, spawn to READY;
   - open segment: Poisson arrivals at the workload's fixed rate, each
     request timed from its due time (the [restart] mix is SIGKILLed once
     in it);
   - closed segment: clients 0-15 issue a fixed quota back to back, so every
     commit does the same work; /proc deltas of the server are summed over
     these segments;
   - crash batch (all mixes but [restart]): one SIGKILL while a short
     closed batch runs against a second server with the same mix, restarted
     on the same image, so every mix reports the recovery time and outage
     of its own state.

   Interleaving puts every metric's samples across the whole run, so a
   slow spell of the host touches each metric in the same few windows
   instead of wiping out one phase, and every end-to-end timing is read
   from the quietest quarter of its windows ([Stats.quiet_low],
   [Stats.quiet_high]).  After the rounds: the probe (the checker slot
   times each request kind, one at a time), then on each server the drain
   and the checks (each client's dedup record read back, the checker slot
   probes the map), SIGTERM, and the image read offline for the final-state
   oracle and space amplification.

   The traced pass runs the same rounds against [Host] in-process with
   layer-boundary spans and the [Obs] counters on, then replays the first
   kills' recovery on copies of the killed server's image.  In a traced run
   each pass gets half of --seconds, so it takes about as long as an
   untraced one. *)

module Wire = Net.Wire

type settings = {
  seed : int;
  seconds : float;
  smoke : bool;  (** every size and rate divided by 50, two rounds *)
  sabotage : bool;  (** perturb one received answer; the run must fail *)
  exe : string;  (** bin/nvkv_server.exe *)
  work : string;  (** scratch directory for images and sockets *)
  out : string;  (** result and trace files *)
}

type metric = { name : string; value : float; unit_ : string; count : int option }

type outcome = {
  workload : string;
  end_to_end : metric list;
  per_layer : metric list;
  attempted : int;
  failed : int;
  checked : int;  (** answers the oracle checked *)
  resent : int;  (** requests re-sent after a connection broke *)
  correct : bool;
  error : string option;
  valid : bool;
  samples : (string * int) list;
  series : (string * float list) list;
  layers : (string * Json.t) list;  (** span summary, traced runs only *)
}

let metric ?count name unit_ value = { name; value; unit_; count }

let t_preload = 0
let t_open = 1
let t_closed = 2
let t_crash = 3
let t_drain = 4
let t_check = 5
let t_probe = 6
let t_warm = 7

let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

let kind_index k =
  let rec go i = function
    | [] -> assert false
    | k' :: rest -> if k = k' then i else go (i + 1) rest
  in
  go 0 Workload.kinds

(* One round per two seconds of --seconds. *)
let rounds s = if s.smoke then 2 else max 2 (int_of_float (Float.round (s.seconds /. 2.)))

(* Each open segment is summarised in four windows (by due time), each
   closed segment in two (by completion). *)
let open_windows = 4
let closed_windows = 2

(* Phase sizes follow from --seconds: the workload's share of it in the
   open segments, the closed quota sized to take about the rest at the
   measured capacity. *)
let segment_ns s (w : Workload.t) =
  int_of_float (s.seconds *. 1e9 *. w.open_share) / rounds s

let closed_per s (w : Workload.t) =
  let secs = s.seconds *. (1. -. w.open_share) in
  max 1 (int_of_float (w.closed_rate *. secs) / Workload.closed_clients / rounds s)

(* The replays of a traced run: the first kills only, each a 64 MiB copy. *)
let max_replays = 3

let has_queue (w : Workload.t) =
  List.exists (fun (k, _) -> k = Workload.Enq || k = Workload.Deq) w.mix

(* ------------------------------------------------------------------ *)
(* One pass: a load generator, an oracle and the phase drivers         *)
(* ------------------------------------------------------------------ *)

type pass = {
  s : settings;
  w : Workload.t;
  lg : Loadgen.t;
  sup : Proc.t option;  (** the real server; [None] for the host *)
  oracle : Oracle.t;
  streams : Workload.stream array;
  open_lat : Stats.samples;
  closed_lat : Stats.samples;
  kind_lat : Stats.samples array;  (** the checker's probe, by kind *)
  open_win : Stats.samples array;  (** open latencies, [open_windows] per round *)
  closed_win : Stats.samples array;  (** closed latencies, [closed_windows] per round *)
  mutable round : int;
  mutable seg_start : int;  (** the current open segment's start, ns *)
  mutable seg_ns : int;
  mutable closed_n : int;  (** requests in the current closed segment *)
  mutable closed_done : int;
  closed_marks : int array;  (** when each window of the segment began and ended *)
  mutable rates : float list;  (** answers per second per closed window *)
  mutable closed_total : int;
  mutable counters : Proc.counters option;  (** server deltas, closed segments *)
  mutable setups : float list;  (** fresh starts, s *)
  late : Stats.samples;
  mutable sabotage : bool;
  mutable puts : int;  (** acknowledged puts: user bytes 16 each *)
  mutable enqs : int;  (** acknowledged enqueues: user bytes 8 each *)
  quota : int array;  (** closed loop: requests each client has still to issue *)
  mutable answered : int;  (** answers in the current closed loop *)
  mutable kill_at : int;  (** crash batch: SIGKILL at this many answers; 0: none *)
  mutable on_traced : Loadgen.req -> Wire.result -> int -> unit;
  last_seq : int array;  (** expected Last_seq answers *)
}

let perturb = function Wire.Value v -> Wire.Value (v + 1) | r -> r

let on_ack p (r : Loadgen.req) result now =
  Option.iter (fun sup -> Proc.note_ack sup now) p.sup;
  let result =
    match (r.Loadgen.op, result) with
    | (Wire.Get _ | Wire.Dequeue), Wire.Value _ when p.sabotage ->
        p.sabotage <- false;
        perturb result
    | _ -> result
  in
  let client = r.Loadgen.client in
  (if r.Loadgen.tag = t_check then
     match r.Loadgen.op with
     | Wire.Last_seq ->
         Oracle.expect p.oracle
           (Printf.sprintf "client %d last-seq" client)
           ~got:result ~want:(Wire.Value p.last_seq.(client))
     | Wire.Get k ->
         Oracle.expect p.oracle
           (Printf.sprintf "checker get %d" k)
           ~got:result ~want:(Oracle.model_answer p.oracle k)
     | Wire.Dequeue ->
         Oracle.expect p.oracle "checker dequeue after drain" ~got:result
           ~want:Wire.Nothing
     | _ -> ()
   else
     match result with
     | Wire.Refused _ -> ()
     | _ -> Oracle.check p.oracle ~client r.Loadgen.op result);
  (match (r.Loadgen.op, result) with
  | Wire.Put _, Wire.Done -> p.puts <- p.puts + 1
  | Wire.Enqueue _, Wire.Done -> p.enqs <- p.enqs + 1
  | _ -> ());
  let lat = now - Loadgen.start_of r in
  if r.Loadgen.tag = t_probe then
    Stats.add p.kind_lat.(kind_index (Workload.kind_of_op r.Loadgen.op)) lat
  else if r.Loadgen.tag = t_open then begin
    Stats.add p.open_lat lat;
    let win = (r.Loadgen.due - p.seg_start) * open_windows / p.seg_ns in
    Stats.add p.open_win.((p.round * open_windows) + max 0 (min (open_windows - 1) win)) lat
  end
  else if r.Loadgen.tag = t_closed then begin
    Stats.add p.closed_lat lat;
    let win = p.closed_done * closed_windows / p.closed_n in
    Stats.add p.closed_win.((p.round * closed_windows) + win) lat;
    p.closed_done <- p.closed_done + 1;
    if p.closed_done * closed_windows / p.closed_n > win then
      p.closed_marks.(win + 1) <- now
  end;
  p.on_traced r result now;
  if r.Loadgen.tag = t_drain then (
    match result with
    | Wire.Value _ -> Loadgen.submit p.lg ~client ~tag:t_drain ~due:0 Wire.Dequeue
    | _ -> ());
  if r.Loadgen.tag = t_warm || r.Loadgen.tag = t_closed || r.Loadgen.tag = t_crash
  then begin
    p.answered <- p.answered + 1;
    if p.quota.(client) > 0 then begin
      p.quota.(client) <- p.quota.(client) - 1;
      Loadgen.submit p.lg ~client ~tag:r.Loadgen.tag ~due:0
        (Workload.next p.streams.(client))
    end;
    match p.sup with
    | Some sup when p.answered = p.kill_at ->
        p.kill_at <- 0;
        Proc.kill sup
    | _ -> ()
  end

let make_pass s w ~addr ~sup =
  let lg = Loadgen.create ~addr ~nclients:Workload.server_slots in
  let windows n = Array.init (rounds s * n) (fun _ -> Stats.samples ()) in
  let p =
    {
      s;
      w;
      lg;
      sup;
      oracle = Oracle.create ~nclients:Workload.server_slots;
      streams =
        Array.init Workload.nclients (fun client ->
            Workload.stream w ~seed:s.seed ~client);
      open_lat = Stats.samples ();
      closed_lat = Stats.samples ();
      kind_lat = Array.of_list (List.map (fun _ -> Stats.samples ()) Workload.kinds);
      open_win = windows open_windows;
      closed_win = windows closed_windows;
      round = 0;
      seg_start = 0;
      seg_ns = 1;
      closed_n = 1;
      closed_done = 0;
      closed_marks = Array.make (closed_windows + 1) 0;
      rates = [];
      closed_total = 0;
      counters = None;
      setups = [];
      late = Stats.samples ();
      sabotage = s.sabotage;
      puts = 0;
      enqs = 0;
      quota = Array.make Workload.closed_clients 0;
      answered = 0;
      kill_at = 0;
      on_traced = (fun _ _ _ -> ());
      last_seq = Array.make Workload.server_slots 0;
    }
  in
  lg.Loadgen.on_ack <- on_ack p;
  p

(* Keep a restart in progress moving, and wake the loop every millisecond
   until the server is back. *)
let tick p now =
  match p.sup with
  | None -> now + 10_000_000
  | Some sup ->
      Proc.step sup;
      p.lg.Loadgen.watch <- Proc.watch sup;
      if Proc.running sup = None then now + 1_000_000 else now + 10_000_000

let run_until_idle p = Loadgen.run p.lg ~tick:(tick p) ~finished:(fun () -> Loadgen.idle p.lg)

(* Wait for the latest restart's first answer; ping from the checker slot
   if nothing else is in flight. *)
let settle p =
  match p.sup with
  | None -> ()
  | Some sup ->
      while not (Proc.settled sup) do
        if Loadgen.idle p.lg && Proc.running sup <> None then
          Loadgen.submit p.lg ~client:Workload.checker ~tag:t_check ~due:0 Wire.Ping;
        Loadgen.poll p.lg ~until:(tick p (Stats.now_ns ()))
      done;
      run_until_idle p

let preload p =
  let t0 = Stats.now_ns () in
  Loadgen.closed p.lg ~tick:(tick p) ~tag:t_preload
    ~requests:
      (List.init Workload.nclients (fun c -> (c, Workload.preload p.streams.(c))));
  Stats.now_ns () - t0

(* Clients 0-15 each issue [per] requests back to back: the first now, each
   next one when the previous is answered.  [started] runs once the first
   requests are queued. *)
let closed_loop ?(started = ignore) p ~tag ~per =
  p.answered <- 0;
  for c = 0 to Workload.closed_clients - 1 do
    p.quota.(c) <- per - 1;
    Loadgen.submit p.lg ~client:c ~tag ~due:0 (Workload.next p.streams.(c))
  done;
  started ();
  run_until_idle p

(* Untimed: a quarter of a closed segment, so the first round does not pay
   for cold caches and a cold allocator. *)
let warm_up p = closed_loop p ~tag:t_warm ~per:(max 1 (closed_per p.s p.w / 4))

let open_segment p =
  let duration_ns = segment_ns p.s p.w in
  let seed = p.s.seed and round = p.round in
  let arrivals = Workload.arrivals p.w ~seed ~round ~duration_ns in
  let start = Stats.now_ns () + 1_000_000 in
  p.seg_start <- start;
  p.seg_ns <- duration_ns;
  let kill =
    ref
      (if p.w.Workload.kills_in_open && p.sup <> None then
         Some (start + Workload.kill_offset p.w ~seed ~round ~window_ns:(duration_ns * 4 / 5))
       else None)
  in
  let tick now =
    (match (!kill, p.sup) with
    | Some k, Some sup when now >= k && Proc.running sup <> None ->
        Proc.kill sup;
        kill := None
    | _ -> ());
    let wake = tick p now in
    match !kill with Some k -> min wake k | None -> wake
  in
  Loadgen.open_loop p.lg ~tick ~tag:t_open ~start ~arrivals
    ~nclients:Workload.nclients
    ~next_op:(fun c -> Workload.next p.streams.(c))
    ~late:p.late;
  settle p

(* The rate of each window of the segment is its answers over the time
   they took. *)
let closed_segment p =
  let per = closed_per p.s p.w in
  let n = per * Workload.closed_clients in
  p.closed_n <- n;
  p.closed_done <- 0;
  let pid = Option.bind p.sup Proc.running |> Option.map (fun r -> r.Proc.pid) in
  let before = Option.map Proc.counters pid in
  closed_loop p ~tag:t_closed ~per ~started:(fun () ->
      p.closed_marks.(0) <- Stats.now_ns ());
  (match (before, Option.map Proc.counters pid) with
  | Some b, Some a -> p.counters <- Some (Proc.add_delta p.counters b a)
  | _ -> ());
  let m = p.closed_marks and bound k = k * n / closed_windows in
  for k = 0 to closed_windows - 1 do
    let answers = float_of_int (bound (k + 1) - bound k) in
    p.rates <- (answers /. (float_of_int (m.(k + 1) - m.(k)) /. 1e9)) :: p.rates
  done;
  p.closed_total <- p.closed_total + n

(* One SIGKILL under closed-loop load: the batch is killed once a seeded
   share of it has been answered, so the kill lands with requests in
   flight; they are re-sent to the restarted server. *)
let crash_batch p =
  let rng = Random.State.make [| p.s.seed; p.w.Workload.salt; -3; p.round |] in
  let per = max 8 (closed_per p.s p.w / 8) in
  let batch = per * Workload.closed_clients in
  closed_loop p ~tag:t_crash ~per ~started:(fun () ->
      p.kill_at <- (batch / 4) + 1 + Random.State.int rng (batch / 4));
  settle p

(* The measured rounds; [before] and [after] run around each round's
   segments. *)
let measure ?(before = ignore) ?(after = ignore) p =
  for r = 0 to rounds p.s - 1 do
    p.round <- r;
    before ();
    open_segment p;
    closed_segment p;
    after r
  done

let probe p =
  Loadgen.closed p.lg ~tick:(tick p) ~tag:t_probe
    ~requests:[ (Workload.checker, Workload.probe_ops ()) ]

let drain p =
  if has_queue p.w then begin
    for c = 0 to Workload.nclients - 1 do
      Loadgen.submit p.lg ~client:c ~tag:t_drain ~due:0 Wire.Dequeue
    done;
    run_until_idle p
  end

(* Each client's dedup slot must hold its last request; the checker slot
   gets a seeded sample of keys and must find the queue empty. *)
let final_checks p =
  for c = 0 to Workload.nclients - 1 do
    p.last_seq.(c) <- p.lg.Loadgen.clients.(c).Loadgen.seq;
    Loadgen.submit p.lg ~client:c ~tag:t_check ~due:0 Wire.Last_seq
  done;
  let rng = Random.State.make [| p.s.seed; p.w.Workload.salt; -4 |] in
  let keyspace = Workload.nclients * p.w.Workload.keys_per_client in
  if keyspace > 0 then
    for _ = 1 to 64 do
      Loadgen.submit p.lg ~client:Workload.checker ~tag:t_check ~due:0
        (Wire.Get (Random.State.int rng keyspace))
    done;
  Loadgen.submit p.lg ~client:Workload.checker ~tag:t_check ~due:0 Wire.Dequeue;
  run_until_idle p

(* The stopped server's image: final-state oracle and space amplification. *)
let offline p image =
  let img = Host.read_image image in
  Oracle.finish p.oracle ~bindings:img.Host.bindings ~queued:img.Host.queued;
  float_of_int img.Host.used_bytes /. float_of_int ((16 * p.puts) + (8 * p.enqs))

let remove path = try Sys.remove path with Sys_error _ -> ()

let pct_metric name samples p =
  let n = Stats.count samples in
  let v = if n = 0 then 0. else us (Stats.nearest_rank (Stats.to_sorted samples) p) in
  metric ~count:n name "us" v

(* ------------------------------------------------------------------ *)
(* The untraced pass against the real server                           *)
(* ------------------------------------------------------------------ *)

type real = {
  rp : pass;  (** the measured server *)
  crash : pass option;  (** the server the crash batches kill *)
  preload_ns : int;
  space_amp : float;
  restarts : Proc.restart list;
}

(* The server of a pass; [stop] ends it and checks its image offline. *)
let serve ?copy_to s w ~image ~sock =
  remove image;
  let ready, _ = Proc.start_blocking ~exe:s.exe ~image ~sock in
  let sup = Proc.supervise ?copy_to ~exe:s.exe ~image ~sock ready in
  (sup, make_pass s w ~addr:(Unix.ADDR_UNIX sock) ~sup:(Some sup))

let stop p sup ~image =
  drain p;
  final_checks p;
  Loadgen.close p.lg;
  Proc.stop (Option.get (Proc.running sup));
  let space_amp = offline p image in
  remove image;
  space_amp

(* All mixes but [restart] are killed on a second server of their own, with
   the same mix, preload and warm-up, once after each round: a recovered
   server allocates from the free list recovery rebuilt and slows as its
   history grows, so killing the measured server would make every later
   round measure that instead of the mix, and killing it only after the
   rounds would put every kill in the same few seconds of the run. *)
let real_pass ?copy_to s (w : Workload.t) =
  let path name = Filename.concat s.work (w.Workload.name ^ name) in
  let fresh_start () =
    let img = path "-setup.img" and sock = path "-setup.sock" in
    remove img;
    let r, ns = Proc.start_blocking ~exe:s.exe ~image:img ~sock in
    Proc.kill_now r;
    remove img;
    remove sock;
    float_of_int ns /. 1e9
  in
  let image = path ".img" and crash_image = path "-crash.img" in
  let separate = not w.Workload.kills_in_open in
  let sup, p =
    serve s w ~image ~sock:(path ".sock")
      ?copy_to:(if separate then None else copy_to)
  in
  let crash =
    if separate then Some (serve ?copy_to s w ~image:crash_image ~sock:(path "-crash.sock"))
    else None
  in
  let preload_ns = preload p in
  warm_up p;
  Option.iter
    (fun (_, c) ->
      ignore (preload c);
      warm_up c)
    crash;
  measure p
    ~before:(fun () -> p.setups <- fresh_start () :: p.setups)
    ~after:(fun r ->
      Option.iter
        (fun (_, c) ->
          c.round <- r;
          crash_batch c)
        crash);
  probe p;
  let space_amp = stop p sup ~image in
  Option.iter (fun (csup, c) -> ignore (stop c csup ~image:crash_image)) crash;
  let killed = match crash with Some (csup, _) -> csup | None -> sup in
  {
    rp = p;
    crash = Option.map snd crash;
    preload_ns;
    space_amp;
    restarts = List.rev killed.Proc.restarts;
  }

let restart_values f r = List.map f r.restarts
let recovery_values = restart_values (fun e -> e.Proc.recovery_ms)
let outage_values = restart_values (fun e -> ms (Proc.outage_ns e))
let open_p50s p = List.map (fun v -> v /. 1e3) (Stats.per_window p.open_win 50.)

let end_to_end r =
  let p = r.rp in
  let kills = List.length r.restarts in
  [
    metric "setup_s" "s" (Stats.median_float p.setups);
    metric ~count:(Stats.count p.open_lat) "open_p50_us" "us" (Stats.quiet_low (open_p50s p));
    metric ~count:p.closed_total "throughput_ops_s" "ops/s" (Stats.quiet_high p.rates);
    metric "space_amp" "ratio" r.space_amp;
    metric ~count:kills "recovery_ms" "ms" (Stats.quiet_low (recovery_values r));
    metric ~count:kills "outage_ms" "ms" (Stats.quiet_low (outage_values r));
  ]

let server_layers r =
  let p = r.rp in
  let per_op f =
    match p.counters with
    | Some c -> float_of_int (f c) /. float_of_int p.closed_total
    | None -> 0.
  in
  let late = Stats.to_sorted p.late in
  let restart_median f = Stats.median_float (restart_values f r) in
  [
    metric "server.cpu_us_per_op" "us" (per_op (fun c -> c.Proc.cpu_ticks) *. 10_000.);
    metric "server.syscw_per_op" "syscalls" (per_op (fun c -> c.Proc.syscw));
    metric "server.wchar_bytes_per_op" "bytes" (per_op (fun c -> c.Proc.wchar));
    metric "server.ctxsw_per_op" "switches" (per_op (fun c -> c.Proc.ctxsw));
    metric "server.rss_mb" "MB"
      (match p.counters with Some c -> float_of_int c.Proc.rss_kb /. 1024. | None -> 0.);
    metric "server.load_rchar_mb" "MB"
      (restart_median (fun e -> float_of_int e.Proc.load_rchar /. 1048576.));
    metric "restart.respawn_ms" "ms" (restart_median (fun e -> ms (Proc.respawn_ns e)));
    metric "restart.reconnect_ms" "ms"
      (restart_median (fun e -> ms (e.Proc.t_first_ack - e.Proc.t_ready)));
    metric ~count:(Array.length late) "loadgen.late_p99_us" "us"
      (us (Stats.nearest_rank late 99.));
    metric "loadgen.preload_s" "s" (float_of_int r.preload_ns /. 1e9);
    pct_metric "client.open_p99_us" p.open_lat 99.;
    pct_metric "client.open_p999_us" p.open_lat 99.9;
  ]
  @ List.map
      (fun k ->
        pct_metric
          ("client." ^ Workload.kind_name k ^ "_p50_us")
          p.kind_lat.(kind_index k) 50.)
      Workload.kinds
  @ [
      pct_metric "client.closed_p50_us" p.closed_lat 50.;
      metric ~count:(Stats.count p.closed_lat) "client.closed_p99_us" "us"
        (Stats.median_float (Stats.per_window p.closed_win 99.) /. 1e3);
    ]

(* Each window's, start's and restart's value, for reading a run's spread. *)
let series r =
  let p = r.rp in
  [
    ("setup_s", List.rev p.setups);
    ("open_p50_us", open_p50s p);
    ( "closed_p99_us",
      List.map (fun v -> v /. 1e3) (Stats.per_window p.closed_win 99.) );
    ("throughput_ops_s", List.rev p.rates);
    ("recovery_ms", recovery_values r);
    ("outage_ms", outage_values r);
  ]

(* ------------------------------------------------------------------ *)
(* The traced pass against the in-process host                         *)
(* ------------------------------------------------------------------ *)

(* Time encode and decode over the run's own frames, per frame. *)
let wire_costs frames =
  let reqs = Array.of_list (List.map (fun (rq, _) -> rq) frames) in
  let resps = Array.of_list (List.map (fun (_, rs) -> rs) frames) in
  let n = Array.length reqs in
  if n = 0 then (0., 0.)
  else begin
    let rounds = 5 in
    let enc_q = Array.map Wire.encode_request reqs in
    let enc_r = Array.map Wire.encode_response resps in
    let t0 = Stats.now_ns () in
    for _ = 1 to rounds do
      Array.iter (fun q -> ignore (Sys.opaque_identity (Wire.encode_request q))) reqs;
      Array.iter (fun r -> ignore (Sys.opaque_identity (Wire.encode_response r))) resps
    done;
    let t1 = Stats.now_ns () in
    let len = Bytes.length in
    for _ = 1 to rounds do
      Array.iter
        (fun b -> ignore (Sys.opaque_identity (Wire.decode_request b ~len:(len b))))
        enc_q;
      Array.iter
        (fun b -> ignore (Sys.opaque_identity (Wire.decode_response b ~len:(len b))))
        enc_r
    done;
    let t2 = Stats.now_ns () in
    let per = float_of_int (2 * n * rounds) in
    (float_of_int (t1 - t0) /. per, float_of_int (t2 - t1) /. per)
  end

let keep_spans = 20_000

let host_pass s (w : Workload.t) ~untraced_open_p50 ~replays =
  let path name = Filename.concat s.work (w.Workload.name ^ name) in
  let image = path "-host.img" and sock = path "-host.sock" in
  remove image;
  let stamps = Host.stamps () in
  let host = Host.start ~stamps ~image ~sock () in
  let p = make_pass s w ~addr:(Unix.ADDR_UNIX sock) ~sup:None in
  let spans = Spans.create ~keep:keep_spans in
  let frames = ref [] and nframes = ref 0 in
  let traced = ref 0 and closed_traced = ref 0 and depth = ref 0 in
  p.on_traced <-
    (fun r result now ->
      if r.Loadgen.tag = t_open || r.Loadgen.tag = t_closed || r.Loadgen.tag = t_probe
      then begin
        let client = r.Loadgen.client and seq = r.Loadgen.seq in
        let row = client * Host.nstamps in
        let sp =
          Spans.of_request ~kind:(Workload.kind_of_op r.Loadgen.op)
            ~start:(Loadgen.start_of r) ~sent:r.Loadgen.sent ~recv:now (fun i ->
              stamps.(row + i))
        in
        let phase =
          if r.Loadgen.tag = t_open then "open"
          else if r.Loadgen.tag = t_closed then "closed"
          else "probe"
        in
        Spans.add spans ~phase ~client ~seq sp;
        incr traced;
        if r.Loadgen.tag = t_closed then begin
          incr closed_traced;
          depth := !depth + stamps.(row + Host.s_depth)
        end;
        if !nframes < keep_spans then begin
          incr nframes;
          frames :=
            ( { Wire.client; seq; op = r.Loadgen.op },
              { Wire.client; seq; result } )
            :: !frames
        end
      end);
  ignore (preload p);
  warm_up p;
  let blocks () = Nvheap.Heap.block_count host.Host.heap ~allocated:true in
  let blocks0 = blocks () in
  Obs.Probe.reset ();
  Obs.Config.set_enabled true;
  measure p;
  probe p;
  Obs.Config.set_enabled false;
  let totals = Obs.Counters.totals Obs.Probe.counters in
  let flush_mean_ns =
    (* log2 buckets, each read at its geometric midpoint *)
    let b = Obs.Histogram.totals (Obs.Probe.histogram Obs.Probe.Pmem_flush) in
    let n = Array.fold_left ( + ) 0 b in
    let sum = ref 0. in
    Array.iteri
      (fun i c -> sum := !sum +. (float_of_int c *. 1.5 *. (2. ** float_of_int i)))
      b;
    if n = 0 then 0. else !sum /. float_of_int n
  in
  let requests = float_of_int (max 1 !traced) in
  let per_op n = float_of_int n /. requests in
  let allocs = float_of_int (blocks () - blocks0) /. requests in
  let used_mb = float_of_int (Host.heap_used host.Host.heap) /. 1048576. in
  let map_nodes = List.length (Recoverable.Rmap.live_nodes host.Host.map) in
  let queue_nodes = List.length (Recoverable.Rqueue.live_nodes host.Host.queue) in
  let keys =
    List.init (Workload.nclients * w.Workload.keys_per_client) Fun.id
    @ List.init Workload.probe_rounds Workload.checker_key
  in
  let find_us =
    let t0 = Stats.now_ns () in
    List.iter
      (fun key -> ignore (Sys.opaque_identity (Recoverable.Rmap.find host.Host.map ~key)))
      keys;
    us (Stats.now_ns () - t0) /. float_of_int (List.length keys)
  in
  drain p;
  final_checks p;
  Loadgen.close p.lg;
  Host.stop host;
  ignore (offline p image);
  remove image;
  let encode_ns, decode_ns = wire_costs (List.rev !frames) in
  let replayed = List.map Host.replay replays in
  List.iter remove replays;
  let rmed f =
    if replayed = [] then 0. else Stats.median_float (List.map f replayed)
  in
  let traced_open_p50 = Stats.quiet_low (open_p50s p) in
  let sp = Spans.find_p50_us spans ~phase:"open" in
  let layers =
    [
      metric "wire.encode_ns" "ns" encode_ns;
      metric "wire.decode_ns" "ns" decode_ns;
      metric "net.inbound_us" "us" (sp "net.inbound");
      metric "net.outbound_us" "us" (sp "net.outbound");
      metric "service.wait_us" "us" (Spans.find_p50_us spans ~phase:"closed" "service.wait");
      metric "service.depth_mean" "jobs"
        (float_of_int !depth /. float_of_int (max 1 !closed_traced));
      metric "dedup.lookup_us" "us" (sp "dedup.lookup");
      metric "dedup.record_us" "us" (sp "dedup.record");
      metric "exec.complete_us" "us" (sp "exec.complete");
    ]
    @ List.map
        (fun k ->
          let name = "exec." ^ Workload.kind_name k in
          metric (name ^ "_us") "us" (Spans.find_p50_us spans ~phase:"probe" name))
        Workload.kinds
    @ [
        metric "exec.calls_per_op" "calls" (per_op totals.Obs.Counters.ops);
        metric "rmap.chain_nodes" "nodes"
          (float_of_int map_nodes /. float_of_int Host.buckets);
        metric "rmap.find_us" "us" find_us;
        metric "rqueue.chain_nodes" "nodes" (float_of_int queue_nodes);
        metric "heap.used_mb" "MB" used_mb;
        metric "heap.allocs_per_op" "allocs" allocs;
        metric "pmem.flushes_per_op" "flushes" (per_op totals.Obs.Counters.flushes);
        metric "pmem.lines_per_op" "lines" (per_op totals.Obs.Counters.lines_flushed);
        metric "pmem.reads_per_op" "reads" (per_op totals.Obs.Counters.reads);
        metric "pmem.writes_per_op" "writes" (per_op totals.Obs.Counters.writes);
        metric "pmem.write_amp" "ratio" (Obs.Counters.write_amplification totals);
        metric "pmem.flush_mean_ns" "ns" flush_mean_ns;
        metric "recovery.load_ms" "ms" (rmed (fun r -> ms r.Host.load_ns));
        metric "recovery.attach_ms" "ms" (rmed (fun r -> ms r.Host.attach_ns));
        metric "recovery.roots_ms" "ms" (rmed (fun r -> ms r.Host.roots_ns));
        metric "recovery.replay_ms" "ms" (rmed (fun r -> ms r.Host.replay_ns));
        metric ~count:(List.length replayed) "recovery.frames" "frames"
          (rmed (fun r -> float_of_int r.Host.frames));
        metric "trace.overhead_frac" "fraction"
          ((traced_open_p50 /. untraced_open_p50) -. 1.);
      ]
  in
  let trace_file =
    Filename.concat s.out
      (Printf.sprintf "%s-seed%d.trace.json" w.Workload.name s.seed)
  in
  Spans.write_chrome spans trace_file;
  (p, layers, Spans.summary spans)

(* ------------------------------------------------------------------ *)
(* A whole run                                                         *)
(* ------------------------------------------------------------------ *)

(* Valid when the generator kept its schedule and every reported
   percentile has at least ten samples beyond it: the open p50 and the
   closed p99 per window, the open p99 and p99.9, each kind's p50. *)
let validity r =
  let p = r.rp in
  let late = Stats.to_sorted p.late in
  let supported (n, pct) = n = 0 || Stats.beyond ~n pct >= 10 in
  let counts wins = Array.to_list (Array.map Stats.count wins) in
  us (Stats.nearest_rank late 99.) <= 1000.
  && List.for_all supported
       (List.map (fun n -> (n, 50.)) (counts p.open_win)
       @ List.map (fun n -> (n, 99.)) (counts p.closed_win)
       @ List.map (fun n -> (n, 50.)) (counts p.kind_lat)
       @ [ (Stats.count p.open_lat, 99.); (Stats.count p.open_lat, 99.9) ])

let find name ms = (List.find (fun m -> m.name = name) ms).value

let oracle_outcome (passes : pass list) =
  let wrong = List.exists (fun p -> not (Oracle.ok p.oracle)) passes in
  let expired = List.exists (fun p -> p.lg.Loadgen.expired > 0) passes in
  let stray = List.exists (fun p -> p.lg.Loadgen.stray > 0) passes in
  let error =
    match List.find_map (fun p -> p.oracle.Oracle.first_error) passes with
    | Some e -> Some e
    | None when expired -> Some "a request passed its 10 s deadline; its effect is unknown"
    | None when stray -> Some "a response matched no outstanding request"
    | None -> None
  in
  (not (wrong || expired || stray), error)

let run ~traced s (w : Workload.t) =
  let w = if s.smoke then Workload.smoke w else w in
  let s = if traced then { s with seconds = s.seconds /. 2. } else s in
  let copies = ref [] in
  let copy_to =
    if traced then
      Some
        (fun i ->
          if i >= max_replays then None
          else begin
            let c =
              Filename.concat s.work (Printf.sprintf "%s-kill%d.img" w.Workload.name i)
            in
            copies := c :: !copies;
            Some c
          end)
    else None
  in
  let r = real_pass ?copy_to s w in
  let e2e = end_to_end r in
  let server = server_layers r in
  let host =
    if traced then
      Some
        (host_pass s w
           ~untraced_open_p50:(find "open_p50_us" e2e)
           ~replays:(List.rev !copies))
    else None
  in
  let passes =
    (r.rp :: Option.to_list r.crash)
    @ match host with Some (p, _, _) -> [ p ] | None -> []
  in
  let correct, error = oracle_outcome passes in
  let per_layer =
    server @ match host with Some (_, layers, _) -> layers | None -> []
  in
  {
    workload = w.Workload.name;
    end_to_end = e2e;
    per_layer;
    attempted = List.fold_left (fun a p -> a + p.lg.Loadgen.attempted) 0 passes;
    failed = List.fold_left (fun a p -> a + Loadgen.failed p.lg) 0 passes;
    checked = List.fold_left (fun a p -> a + p.oracle.Oracle.checked) 0 passes;
    resent = List.fold_left (fun a p -> a + p.lg.Loadgen.resent) 0 passes;
    correct;
    error;
    valid = validity r;
    samples =
      [
        ("open", Stats.count r.rp.open_lat);
        ("closed", Stats.count r.rp.closed_lat);
        ("late", Stats.count r.rp.late);
        ("restarts", List.length r.restarts);
      ]
      @ List.map
          (fun k -> (Workload.kind_name k, Stats.count r.rp.kind_lat.(kind_index k)))
          Workload.kinds;
    series = series r;
    layers = (match host with Some (_, _, summary) -> summary | None -> []);
  }
