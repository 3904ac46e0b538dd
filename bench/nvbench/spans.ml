(* Spans of the traced run: one per layer boundary a request crosses, all
   keyed by the request's (client, seq).  They are built from the client's
   send and receive times plus the timestamps [Host] wrote, kept in memory,
   summarised over every request, and written as Chrome trace_event JSON
   for the first [keep] requests when the run ends. *)

type span = {
  name : string;
  layer : string;  (** the module whose public function the span wraps *)
  t0 : int;
  t1 : int;
  parent : int;  (** index of the parent span in the request, -1 for the root *)
}

let structure_layer = function
  | Workload.Get | Workload.Put | Workload.Del -> "recoverable.rmap"
  | Workload.Enq | Workload.Deq -> "recoverable.rqueue"

(* The span tree of one request, from its due time [start] to the answer.
   [stamp i] reads the host's timestamp [i] for this request (0 when the
   path did not pass there). *)
let of_request ~kind ~start ~sent ~recv stamp =
  let s i = stamp i in
  let mk name layer t0 t1 parent = { name; layer; t0; t1; parent } in
  let inner =
    if s Host.s_inner0 = 0 then []
    else
      [
        mk
          ("exec." ^ Workload.kind_name kind)
          (structure_layer kind) (s Host.s_inner0) (s Host.s_inner1) 5;
        mk "dedup.record" "recoverable.dedup" (s Host.s_inner1) (s Host.s_record1) 5;
      ]
  in
  Array.of_list
    ([
       mk "request" "bench.client" start recv (-1);
       mk "client.wait" "bench.client" start sent 0;
       mk "net.inbound" "net.server" sent (s Host.s_handler) 0;
       mk "net.handler" "net.server" (s Host.s_handler) (s Host.s_submit) 0;
       mk "service.wait" "runtime.service" (s Host.s_submit) (s Host.s_body) 0;
       mk "exec.dispatch" "runtime.exec" (s Host.s_body) (s Host.s_body_end) 0;
       mk "dedup.lookup" "recoverable.dedup" (s Host.s_lookup0) (s Host.s_lookup1) 5;
       mk "exec.complete" "runtime.exec" (s Host.s_body_end) (s Host.s_k) 0;
       mk "net.outbound" "net.server" (s Host.s_k) recv 0;
     ]
    @ inner)

(* Self time: the span's duration minus the part of it its children
   cover. *)
let self_time spans i =
  let sp = spans.(i) in
  let children =
    Array.to_list spans
    |> List.filter (fun c -> c.parent = i)
    |> List.map (fun c -> (max sp.t0 c.t0, min sp.t1 c.t1))
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (covered, reach) (a, b) ->
        let a = max a reach in
        if b > a then (covered + (b - a), b) else (covered, reach))
      (0, min_int) children
  in
  sp.t1 - sp.t0 - covered

type entry = { layer : string; dur : Stats.samples; self : Stats.samples }

type t = {
  keep : int;
  entries : (string * string, entry) Hashtbl.t;  (** keyed by (phase, name) *)
  mutable order : (string * string) list;  (** first-seen order, reversed *)
  mutable kept : (int * int * span array) list;  (** (client, seq, spans), reversed *)
  mutable nkept : int;
}

let create ~keep =
  { keep; entries = Hashtbl.create 16; order = []; kept = []; nkept = 0 }

let add t ~phase ~client ~seq spans =
  Array.iteri
    (fun i sp ->
      let key = (phase, sp.name) in
      let e =
        match Hashtbl.find_opt t.entries key with
        | Some e -> e
        | None ->
            let e = { layer = sp.layer; dur = Stats.samples (); self = Stats.samples () } in
            Hashtbl.add t.entries key e;
            t.order <- key :: t.order;
            e
      in
      Stats.add e.dur (sp.t1 - sp.t0);
      Stats.add e.self (self_time spans i))
    spans;
  if t.nkept < t.keep then begin
    t.kept <- (client, seq, spans) :: t.kept;
    t.nkept <- t.nkept + 1
  end

let p50_us e =
  if Stats.count e.dur = 0 then 0.
  else float_of_int (Stats.nearest_rank (Stats.to_sorted e.dur) 50.) /. 1e3

let find_p50_us t ~phase name =
  match Hashtbl.find_opt t.entries (phase, name) with
  | Some e -> p50_us e
  | None -> 0.

(* The per-layer summary over every traced request, per phase. *)
let summary t =
  List.rev_map
    (fun ((phase, name) as key) ->
      let e = Hashtbl.find t.entries key in
      ( phase ^ "." ^ name,
        Json.Obj
          [
            ("layer", Json.Str e.layer);
            ("count", Json.Num (float_of_int (Stats.count e.dur)));
            ("p50_us", Json.Num (p50_us e));
            ("mean_us", Json.Num (Stats.mean_int e.dur /. 1e3));
            ("self_mean_us", Json.Num (Stats.mean_int e.self /. 1e3));
          ] ))
    t.order

(* Chrome trace_event JSON ("X" complete events, microseconds); open it in
   chrome://tracing or ui.perfetto.dev.  One thread per client. *)
let write_chrome t path =
  let kept = List.rev t.kept in
  let origin =
    List.fold_left (fun m (_, _, sp) -> min m sp.(0).t0) max_int kept
  in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  let first = ref true in
  List.iter
    (fun (client, seq, spans) ->
      Array.iter
        (fun sp ->
          if not !first then output_string oc ",\n";
          first := false;
          Printf.fprintf oc
            "{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
             %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"client\": %d, \
             \"seq\": %d}}"
            sp.name sp.layer
            (float_of_int (sp.t0 - origin) /. 1e3)
            (float_of_int (sp.t1 - sp.t0) /. 1e3)
            client client seq)
        spans)
    kept;
  output_string oc "\n]}\n";
  close_out oc
