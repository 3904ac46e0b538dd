let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let fnv64_sub acc b ~pos ~len =
  let h = ref acc in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        prime
  done;
  !h

let fnv64_init = offset_basis

let fnv64_into acc ~at b ~pos ~len =
  let h = ref (Bytes.get_int64_le acc at) in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b i))))
        prime
  done;
  Bytes.set_int64_le acc at !h

let fnv64 b ~pos ~len = fnv64_sub offset_basis b ~pos ~len

let fnv64_byte acc b =
  Int64.mul (Int64.logxor acc (Int64.of_int (b land 0xFF))) prime

(* Inlined into [code15_of_int] so its running hash stays unboxed. *)
let[@inline] fnv64_int64 acc v =
  let h = ref acc in
  for i = 0 to 7 do
    let byte =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (i * 8)) 0xFFL)
    in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) prime
  done;
  !h

let code15_of_int v =
  let h = fnv64_int64 offset_basis (Int64.of_int v) in
  let c = Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 32)) in
  (c lxor (c lsr 15) lxor (c lsr 30)) land 0x7FFF

let code_of_int64 v =
  let h = fnv64_int64 offset_basis v in
  (* xor-fold 64 -> 8 bits *)
  let rec fold h n = if n = 0 then h else fold Int64.(logxor h (shift_right_logical h 8)) (n - 1) in
  let c = Int64.to_int (Int64.logand (fold h 7) 0xFFL) in
  if c = 0 then 1 else c

let verification_enabled = Atomic.make true
let enabled () = Atomic.get verification_enabled
let unsafe_set_enabled b = Atomic.set verification_enabled b
