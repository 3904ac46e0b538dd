type kind =
  | Op_begin of { func_id : int }
  | Op_end of { func_id : int }
  | Era_armed of { era : int }
  | Crash_fired of { era : int; at_op : int }
  | Recovery_begin of { worker : int }
  | Recovery_end of { worker : int }
  | Heap_alloc of { payload : int; size : int }
  | Heap_free of { payload : int }
  | Fault_note of { what : string }

type event = { ts_ns : int; domain : int; kind : kind }

let capacity = 8192

(* One global ring.  [cursor] counts events ever recorded; slot writes are
   plain stores of immutable boxed values, so a torn read is impossible and
   the worst race (a reader seeing a slot mid-overwrite) yields a stale but
   well-formed event — acceptable for a diagnostic buffer. *)
let slots : event option array = Array.make capacity None
let cursor = Atomic.make 0

let record kind =
  if Config.enabled () then begin
    let i = Atomic.fetch_and_add cursor 1 in
    slots.(i land (capacity - 1)) <-
      Some
        {
          ts_ns = Config.now_ns ();
          domain = (Domain.self () :> int);
          kind;
        }
  end

let clear () =
  Atomic.set cursor 0;
  Array.fill slots 0 capacity None

let events () =
  let n = Atomic.get cursor in
  let first = if n > capacity then n - capacity else 0 in
  List.filter_map
    (fun i -> slots.(i land (capacity - 1)))
    (List.init (n - first) (fun k -> first + k))

let tail n =
  let all = events () in
  let len = List.length all in
  if len <= n then all else List.filteri (fun i _ -> i >= len - n) all

let kind_label = function
  | Op_begin { func_id } -> Printf.sprintf "op begin func=%d" func_id
  | Op_end { func_id } -> Printf.sprintf "op end func=%d" func_id
  | Era_armed { era } -> Printf.sprintf "era %d armed" era
  | Crash_fired { era; at_op } ->
      Printf.sprintf "crash fired era=%d at_op=%d" era at_op
  | Recovery_begin { worker } -> Printf.sprintf "recovery begin worker=%d" worker
  | Recovery_end { worker } -> Printf.sprintf "recovery end worker=%d" worker
  | Heap_alloc { payload; size } ->
      Printf.sprintf "heap alloc @%d size=%d" payload size
  | Heap_free { payload } -> Printf.sprintf "heap free @%d" payload
  | Fault_note { what } -> Printf.sprintf "fault: %s" what

let pp_event fmt e =
  Format.fprintf fmt "%dns d%d %s" e.ts_ns e.domain (kind_label e.kind)

(* Chrome trace_event format: timestamps in microseconds, phases B/E for
   durations and i for instants.  Begin/end pairs left unbalanced by a
   crash render as open slices, which is the truthful picture. *)
let chrome_json_of_events events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      let ts = Float.of_int e.ts_ns /. 1000. in
      let common name ph =
        Printf.sprintf "{\"name\":%S,\"ph\":%S,\"ts\":%.3f,\"pid\":0,\"tid\":%d"
          name ph ts e.domain
      in
      (match e.kind with
      | Op_begin { func_id } ->
          Buffer.add_string buf (common (Printf.sprintf "call/%d" func_id) "B");
          Buffer.add_string buf "}"
      | Op_end { func_id } ->
          Buffer.add_string buf (common (Printf.sprintf "call/%d" func_id) "E");
          Buffer.add_string buf "}"
      | Era_armed { era } ->
          Buffer.add_string buf (common "era_armed" "i");
          Buffer.add_string buf
            (Printf.sprintf ",\"s\":\"g\",\"args\":{\"era\":%d}}" era)
      | Crash_fired { era; at_op } ->
          Buffer.add_string buf (common "crash_fired" "i");
          Buffer.add_string buf
            (Printf.sprintf ",\"s\":\"g\",\"args\":{\"era\":%d,\"at_op\":%d}}"
               era at_op)
      | Recovery_begin { worker } ->
          Buffer.add_string buf
            (common (Printf.sprintf "recover/worker%d" worker) "B");
          Buffer.add_string buf "}"
      | Recovery_end { worker } ->
          Buffer.add_string buf
            (common (Printf.sprintf "recover/worker%d" worker) "E");
          Buffer.add_string buf "}"
      | Heap_alloc { payload; size } ->
          Buffer.add_string buf (common "heap_alloc" "i");
          Buffer.add_string buf
            (Printf.sprintf
               ",\"s\":\"t\",\"args\":{\"payload\":%d,\"size\":%d}}" payload
               size)
      | Heap_free { payload } ->
          Buffer.add_string buf (common "heap_free" "i");
          Buffer.add_string buf
            (Printf.sprintf ",\"s\":\"t\",\"args\":{\"payload\":%d}}" payload)
      | Fault_note { what } ->
          Buffer.add_string buf (common "fault" "i");
          Buffer.add_string buf
            (Printf.sprintf ",\"s\":\"g\",\"args\":{\"what\":%S}}" what)))
    events;
  Buffer.add_string buf "]\n";
  Buffer.contents buf
