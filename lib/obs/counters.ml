let stripes = 16 (* power of two *)

type counter =
  | Ops
  | Reads
  | Writes
  | Flushes
  | Flushes_elided
  | Drains
  | Lines_flushed
  | Crashes
  | Lines_lost
  | Lines_survived
  | Crashes_survived
  | Recovery_passes
  | Payload_bytes
  | Amplified_bytes
  | Faults_injected
  | Faults_detected
  | Faults_repaired
  | Faults_quarantined
  | Conns_accepted
  | Requests_served
  | Dedup_hits

(* Slot of each counter in a stripe (declaration order). *)
let index = function
  | Ops -> 0
  | Reads -> 1
  | Writes -> 2
  | Flushes -> 3
  | Flushes_elided -> 4
  | Drains -> 5
  | Lines_flushed -> 6
  | Crashes -> 7
  | Lines_lost -> 8
  | Lines_survived -> 9
  | Crashes_survived -> 10
  | Recovery_passes -> 11
  | Payload_bytes -> 12
  | Amplified_bytes -> 13
  | Faults_injected -> 14
  | Faults_detected -> 15
  | Faults_repaired -> 16
  | Faults_quarantined -> 17
  | Conns_accepted -> 18
  | Requests_served -> 19
  | Dedup_hits -> 20

let count = 21

(* [stripes] stripes; slot [index c] of a stripe holds counter [c]. *)
type t = int Atomic.t array array

type totals = {
  ops : int;
  reads : int;
  writes : int;
  flushes : int;
  flushes_elided : int;
  drains : int;
  lines_flushed : int;
  crashes : int;
  lines_lost : int;
  lines_survived : int;
  crashes_survived : int;
  recovery_passes : int;
  payload_bytes : int;
  amplified_bytes : int;
  faults_injected : int;
  faults_detected : int;
  faults_repaired : int;
  faults_quarantined : int;
  conns_accepted : int;
  requests_served : int;
  dedup_hits : int;
}

let create () : t =
  Array.init stripes (fun _ -> Array.init count (fun _ -> Atomic.make 0))

(* The calling domain's stripe index, computed once per domain. *)
let my_stripe =
  Domain.DLS.new_key (fun () -> (Domain.self () :> int) land (stripes - 1))

let bump stripe c n = ignore (Atomic.fetch_and_add stripe.(index c) n)
let add (t : t) c n = bump t.(Domain.DLS.get my_stripe) c n
let incr t c = add t c 1
let incr_dedup_hits t = incr t Dedup_hits

let totals (t : t) =
  let get c =
    let i = index c in
    Array.fold_left (fun acc stripe -> acc + Atomic.get stripe.(i)) 0 t
  in
  {
    ops = get Ops;
    reads = get Reads;
    writes = get Writes;
    flushes = get Flushes;
    flushes_elided = get Flushes_elided;
    drains = get Drains;
    lines_flushed = get Lines_flushed;
    crashes = get Crashes;
    lines_lost = get Lines_lost;
    lines_survived = get Lines_survived;
    crashes_survived = get Crashes_survived;
    recovery_passes = get Recovery_passes;
    payload_bytes = get Payload_bytes;
    amplified_bytes = get Amplified_bytes;
    faults_injected = get Faults_injected;
    faults_detected = get Faults_detected;
    faults_repaired = get Faults_repaired;
    faults_quarantined = get Faults_quarantined;
    conns_accepted = get Conns_accepted;
    requests_served = get Requests_served;
    dedup_hits = get Dedup_hits;
  }

let reset (t : t) = Array.iter (Array.iter (fun a -> Atomic.set a 0)) t

let write_amplification totals =
  if totals.payload_bytes = 0 then 0.
  else Float.of_int totals.amplified_bytes /. Float.of_int totals.payload_bytes

(* Fair cost metric across both flush modes: a drain event is a moment the
   device wrote lines back, exactly like an eager flush call.  An eager
   device never drains, so the metric reduces to flushes/ops there and the
   pre-coalescer accounting is unchanged. *)
let flush_per_op totals =
  if totals.ops = 0 then 0.
  else Float.of_int (totals.flushes + totals.drains) /. Float.of_int totals.ops

let pp fmt t =
  Format.fprintf fmt
    "ops=%d reads=%d writes=%d flushes=%d flushes_elided=%d drains=%d \
     lines_flushed=%d crashes=%d lines_lost=%d lines_survived=%d \
     crashes_survived=%d recovery_passes=%d payload_bytes=%d \
     amplified_bytes=%d faults_injected=%d faults_detected=%d \
     faults_repaired=%d faults_quarantined=%d conns_accepted=%d \
     requests_served=%d dedup_hits=%d"
    t.ops t.reads t.writes t.flushes t.flushes_elided t.drains
    t.lines_flushed t.crashes t.lines_lost t.lines_survived
    t.crashes_survived t.recovery_passes t.payload_bytes t.amplified_bytes
    t.faults_injected t.faults_detected t.faults_repaired
    t.faults_quarantined t.conns_accepted t.requests_served t.dedup_hits
