(* The exact-answer oracle.

   Clients own disjoint key ranges and have one request in flight at a
   time, so each client's own sequential model predicts every get and del
   answer exactly — across server kills too, because a retried request is
   answered from the dedup record rather than re-executed.  The queue is
   shared, so it is checked by invariants instead: every dequeued value was
   enqueued, no value comes out twice, and each consumer sees each
   producer's values in increasing order.  [finish] adds conservation: the
   values still queued at the end plus every dequeued value are exactly the
   enqueued ones. *)

module Wire = Net.Wire

type t = {
  models : (int, int) Hashtbl.t array;  (** per client: key -> value *)
  enqueued : (int, unit) Hashtbl.t;  (** values whose enqueue was acked *)
  dequeued : (int, unit) Hashtbl.t;
  last_seen : (int * int, int) Hashtbl.t;
      (** (consumer, producer) -> last counter the consumer dequeued *)
  mutable checked : int;
  mutable wrong : int;
  mutable first_error : string option;
}

let create ~nclients =
  {
    models = Array.init nclients (fun _ -> Hashtbl.create 64);
    enqueued = Hashtbl.create 1024;
    dequeued = Hashtbl.create 1024;
    last_seen = Hashtbl.create 64;
    checked = 0;
    wrong = 0;
    first_error = None;
  }

let error t msg =
  t.wrong <- t.wrong + 1;
  if t.first_error = None then t.first_error <- Some msg

let errorf t fmt = Printf.ksprintf (error t) fmt

let pp_answer op result =
  Format.asprintf "%s -> %a" (Wire.op_to_string op) Wire.pp_result result

(* Check one acknowledged answer of [client] and advance the model.  Must be
   called in each client's issue order (which is its ack order). *)
let check t ~client op result =
  t.checked <- t.checked + 1;
  let model = t.models.(client) in
  let expect expected =
    if result <> expected then
      errorf t "client %d: %s, expected %s" client (pp_answer op result)
        (Format.asprintf "%a" Wire.pp_result expected)
  in
  match op with
  | Wire.Put (k, v) ->
      expect Wire.Done;
      Hashtbl.replace model k v
  | Wire.Get k ->
      expect
        (match Hashtbl.find_opt model k with
        | Some v -> Wire.Value v
        | None -> Wire.Nothing)
  | Wire.Del k ->
      expect (if Hashtbl.mem model k then Wire.Done else Wire.Nothing);
      Hashtbl.remove model k
  | Wire.Enqueue v ->
      expect Wire.Done;
      Hashtbl.replace t.enqueued v ()
  | Wire.Dequeue -> (
      match result with
      | Wire.Nothing -> ()
      | Wire.Value v ->
          let p = Workload.producer v and n = Workload.counter v in
          if Hashtbl.mem t.dequeued v then
            errorf t "client %d: value %d (producer %d #%d) dequeued twice"
              client v p n
          else begin
            Hashtbl.replace t.dequeued v ();
            let last =
              Option.value ~default:0 (Hashtbl.find_opt t.last_seen (client, p))
            in
            if n <= last then
              errorf t
                "client %d: producer %d's #%d dequeued after its #%d (FIFO \
                 order)"
                client p n last;
            Hashtbl.replace t.last_seen (client, p) n
          end
      | other -> errorf t "client %d: %s" client (pp_answer op other))
  | Wire.Ping | Wire.Last_seq -> ()

(* An answer the caller can predict by other means (the checker slot's
   probes). *)
let expect t what ~got ~want =
  t.checked <- t.checked + 1;
  if got <> want then
    errorf t "%s answered %s, expected %s" what
      (Format.asprintf "%a" Wire.pp_result got)
      (Format.asprintf "%a" Wire.pp_result want)

(* What a get of [key] must answer now, whichever client owns it. *)
let model_answer t key =
  match Array.find_map (fun m -> Hashtbl.find_opt m key) t.models with
  | Some v -> Wire.Value v
  | None -> Wire.Nothing

(* Dequeued values must have been enqueued by someone.  Checked at the end:
   a dequeue may overtake its producer's ack. *)
let finish t ~bindings ~queued =
  Hashtbl.iter
    (fun v () ->
      if not (Hashtbl.mem t.enqueued v) then
        errorf t "value %d was dequeued but never enqueued" v)
    t.dequeued;
  List.iter
    (fun v ->
      if not (Hashtbl.mem t.enqueued v) then
        errorf t "value %d is queued but was never enqueued" v
      else if Hashtbl.mem t.dequeued v then
        errorf t "value %d is still queued after being dequeued" v)
    queued;
  let remaining = Hashtbl.length t.enqueued - Hashtbl.length t.dequeued in
  if remaining <> List.length queued then
    errorf t
      "queue conservation: %d acked enqueues - %d dequeued = %d, but %d \
       remain queued"
      (Hashtbl.length t.enqueued) (Hashtbl.length t.dequeued) remaining
      (List.length queued);
  let expected = Hashtbl.create 1024 in
  Array.iter (Hashtbl.iter (fun k v -> Hashtbl.replace expected k v)) t.models;
  let found = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace found k v) bindings;
  if Hashtbl.length found <> Hashtbl.length expected then
    errorf t "final map holds %d keys, the model %d" (Hashtbl.length found)
      (Hashtbl.length expected);
  Hashtbl.iter
    (fun k v ->
      match Hashtbl.find_opt found k with
      | Some v' when v' = v -> ()
      | Some v' -> errorf t "final map: key %d = %d, model says %d" k v' v
      | None -> errorf t "final map: key %d missing (model %d)" k v)
    expected

let ok t = t.wrong = 0
