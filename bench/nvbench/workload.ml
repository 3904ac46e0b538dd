(* The four traffic mixes and the seeded inputs they generate.

   Every input comes from the seed: client [c]'s operations from
   [Random.State.make [| seed; salt; c |]], the open-loop arrival times from
   the same seed with a salt of their own.  The server only ever sees the
   generated requests. *)

module Wire = Net.Wire

type kind = Get | Put | Del | Enq | Deq

let kinds = [ Get; Put; Del; Enq; Deq ]

let kind_name = function
  | Get -> "get"
  | Put -> "put"
  | Del -> "del"
  | Enq -> "enq"
  | Deq -> "deq"

let kind_of_op = function
  | Wire.Get _ -> Get
  | Wire.Put _ -> Put
  | Wire.Del _ -> Del
  | Wire.Enqueue _ -> Enq
  | Wire.Dequeue -> Deq
  | Wire.Ping | Wire.Last_seq -> invalid_arg "Workload.kind_of_op"

(* 32 load clients, each owning one dedup slot and a disjoint key range;
   slot 32 is the checker's. *)
let nclients = 32
let closed_clients = 16
let checker = nclients
let server_slots = nclients + 1

type t = {
  name : string;
  salt : int;
  why : string;
  keys_per_client : int;  (** map keys a client owns; preload puts each once *)
  preload_enqs : int;  (** enqueues per client before the measured phases *)
  mix : (kind * int) list;  (** percentages, summing to 100 *)
  open_rate : float;  (** Poisson arrivals per second in the open segments *)
  closed_rate : float;
      (** closed-loop capacity measured on a 2-vCPU container; sizes the
          fixed closed-loop quota, so every commit does the same work *)
  open_share : float;  (** share of --seconds spent in the open segments *)
  kills_in_open : bool;
      (** the measured server itself is killed, once in every round's open
          segment (with a recovery history behind it), instead of a second
          server in crash batches *)
}

let kv_read =
  {
    name = "kv_read";
    salt = 1;
    why =
      "map nearly fixed, 95% gets: per-request fixed costs and Rmap.find \
       chain walks carry the time; the heap barely grows";
    keys_per_client = 128;
    preload_enqs = 0;
    mix = [ (Get, 95); (Put, 5) ];
    open_rate = 5000.;
    closed_rate = 30000.;
    open_share = 0.5;
    kills_in_open = false;
  }

let kv_write =
  {
    name = "kv_write";
    salt = 2;
    why =
      "half the requests allocate and persist a node and chains grow: heap, \
       Pmem flushes and backend write-through dominate";
    keys_per_client = 512;
    preload_enqs = 0;
    mix = [ (Put, 50); (Get, 30); (Del, 20) ];
    open_rate = 2000.;
    closed_rate = 13000.;
    open_share = 0.5;
    kills_in_open = false;
  }

let queue =
  {
    name = "queue";
    salt = 3;
    why =
      "all workers CAS the same head/tail cells and every enqueue allocates, \
       with no map work: Rmap changes must not move it";
    keys_per_client = 0;
    preload_enqs = 0;
    mix = [ (Enq, 50); (Deq, 50) ];
    open_rate = 2000.;
    closed_rate = 11000.;
    open_share = 0.5;
    kills_in_open = false;
  }

let restart =
  {
    name = "restart";
    salt = 4;
    why =
      "SIGKILLs under open-loop load over a 20k-op history: the only mix \
       whose open loop includes recovery and dedup answers to retries";
    keys_per_client = 320;
    preload_enqs = 320;
    mix = [ (Put, 30); (Get, 30); (Del, 10); (Enq, 15); (Deq, 15) ];
    open_rate = 2000.;
    closed_rate = 10000.;
    open_share = 0.6;
    kills_in_open = true;
  }

let all = [ kv_read; kv_write; queue; restart ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The smoke run: every size and rate divided by 50. *)
let smoke w =
  let div n = if n = 0 then 0 else max 1 (n / 50) in
  {
    w with
    keys_per_client = div w.keys_per_client;
    preload_enqs = div w.preload_enqs;
    open_rate = Float.max 50. (w.open_rate /. 50.);
    closed_rate = Float.max 100. (w.closed_rate /. 50.);
  }

(* ------------------------------------------------------------------ *)
(* Per-client operation streams                                        *)
(* ------------------------------------------------------------------ *)

type stream = {
  w : t;
  client : int;
  rng : Random.State.t;
  mutable enqs : int;  (** enqueues issued so far; the next value's counter *)
}

let stream w ~seed ~client =
  { w; client; rng = Random.State.make [| seed; w.salt; client |]; enqs = 0 }

let key w ~client i = (client * w.keys_per_client) + i

(* Enqueued values name their producer and are increasing per producer, so
   the oracle can check uniqueness and per-producer FIFO order. *)
let enq_value ~client n = (client lsl 32) lor n
let producer v = v lsr 32
let counter v = v land 0xffff_ffff

let value s = 1 + Random.State.int s.rng 0x3fff_ffff

let next_enq s =
  s.enqs <- s.enqs + 1;
  Wire.Enqueue (enq_value ~client:s.client s.enqs)

let next s =
  let r = Random.State.int s.rng 100 in
  let rec pick acc = function
    | [ (k, _) ] -> k
    | (k, p) :: rest -> if r < acc + p then k else pick (acc + p) rest
    | [] -> assert false
  in
  let random_key () = key s.w ~client:s.client (Random.State.int s.rng s.w.keys_per_client) in
  match pick 0 s.w.mix with
  | Get -> Wire.Get (random_key ())
  | Put ->
      let k = random_key () in
      Wire.Put (k, value s)
  | Del -> Wire.Del (random_key ())
  | Enq -> next_enq s
  | Deq -> Wire.Dequeue

(* The checker's probe: [probe_rounds] rounds of put, get, del, enqueue
   and dequeue, one request at a time, on keys no load client owns.  It
   times every kind on every workload's state. *)
let probe_rounds = 100
let checker_key i = (1 lsl 30) + i

let probe_ops () =
  List.concat
    (List.init probe_rounds (fun i ->
         let k = checker_key i in
         [
           Wire.Put (k, i + 1);
           Wire.Get k;
           Wire.Del k;
           Wire.Enqueue (enq_value ~client:checker (i + 1));
           Wire.Dequeue;
         ]))

(* The history laid down before measurement: every owned key put once, then
   [preload_enqs] enqueues. *)
let preload s =
  List.init s.w.keys_per_client (fun i -> Wire.Put (key s.w ~client:s.client i, value s))
  @ List.init s.w.preload_enqs (fun _ -> next_enq s)

(* ------------------------------------------------------------------ *)
(* Open-loop arrivals                                                  *)
(* ------------------------------------------------------------------ *)

(* Poisson arrival offsets (ns from the segment start) over [duration_ns]
   for the open segment of round [round]; arrival [k] belongs to client
   [k mod nclients]. *)
let arrivals w ~seed ~round ~duration_ns =
  let rng = Random.State.make [| seed; w.salt; -1; round |] in
  let mean_gap = 1e9 /. w.open_rate in
  let rec go t acc =
    let t = t +. (-.mean_gap *. log (1. -. Random.State.float rng 1.)) in
    if t >= float_of_int duration_ns then Array.of_list (List.rev acc)
    else go t (int_of_float t :: acc)
  in
  go 0. []

(* The kill offset (ns from the segment start) of round [round]: in the
   middle half of [window_ns]. *)
let kill_offset w ~seed ~round ~window_ns =
  let rng = Random.State.make [| seed; w.salt; -2; round |] in
  int_of_float (float_of_int window_ns *. (0.25 +. Random.State.float rng 0.5))
