(* Exact-sample statistics.  Every percentile the benchmark reports is a
   nearest-rank percentile over the full sample set, never a bucket. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable int array: per-request samples are kept exactly. *)
type samples = { mutable data : int array; mutable len : int }

let samples () = { data = Array.make 1024 0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len
let to_sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* 1-based nearest rank: the smallest sample with at least p% of the samples
   at or below it.  The epsilon keeps p = 99.9 from rounding up a rank. *)
let rank ~n p =
  let r = int_of_float (ceil ((p *. float_of_int n /. 100.) -. 1e-9)) in
  max 1 (min n r)

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  sorted.(rank ~n p - 1)

(* Samples strictly beyond the p-th percentile's rank: the guide's rule is
   to report a percentile only when at least ten lie past it. *)
let beyond ~n p = n - rank ~n p

let median_float xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Stats.median_float: empty"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Each non-empty window's p-th percentile. *)
let per_window windows p =
  Array.to_list windows
  |> List.filter (fun w -> count w > 0)
  |> List.map (fun w -> float_of_int (nearest_rank (to_sorted w) p))

let mean_int s =
  if s.len = 0 then 0.
  else begin
    let total = ref 0 in
    for i = 0 to s.len - 1 do
      total := !total + s.data.(i)
    done;
    float_of_int !total /. float_of_int s.len
  end

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so [compare] reads the same quartiles the acceptance check
   computes. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Interference from the rest of the host only ever adds time, so over
   repeated measurements of the same work the quietest quarter is the
   steadiest estimate of the program's own cost: the mean of the lowest
   quarter of timings ([quiet_low]) or the highest quarter of rates
   ([quiet_high]), at least one value. *)
let quietest_quarter ~cmp = function
  | [] -> 0.
  | xs ->
      let n = (List.length xs + 3) / 4 in
      let best = List.filteri (fun i _ -> i < n) (List.sort cmp xs) in
      List.fold_left ( +. ) 0. best /. float_of_int n

let quiet_low = quietest_quarter ~cmp:compare
let quiet_high = quietest_quarter ~cmp:(fun a b -> compare b a)
