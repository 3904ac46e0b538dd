let of_ints values =
  let buf = Bytes.create (8 * List.length values) in
  List.iteri (fun i v -> Bytes.set_int64_le buf (8 * i) (Int64.of_int v)) values;
  buf

let to_ints buf =
  let len = Bytes.length buf in
  if len mod 8 <> 0 then invalid_arg "Value.to_ints: length not a multiple of 8";
  List.init (len / 8) (fun i -> Int64.to_int (Bytes.get_int64_le buf (8 * i)))

let of_int v = of_ints [ v ]

let to_int buf =
  match to_ints buf with
  | [ v ] -> v
  | _ -> invalid_arg "Value.to_int: expected exactly 8 bytes"

let of_int2 a b = of_ints [ a; b ]

let to_int2 buf =
  match to_ints buf with
  | [ a; b ] -> (a, b)
  | _ -> invalid_arg "Value.to_int2: expected exactly 16 bytes"

let of_int3 a b c = of_ints [ a; b; c ]

let to_int3 buf =
  match to_ints buf with
  | [ a; b; c ] -> (a, b, c)
  | _ -> invalid_arg "Value.to_int3: expected exactly 24 bytes"

let of_int64 v =
  let buf = Bytes.create 8 in
  Bytes.set_int64_le buf 0 v;
  buf

let to_int64 buf =
  if Bytes.length buf <> 8 then invalid_arg "Value.to_int64: expected 8 bytes";
  Bytes.get_int64_le buf 0

let of_offset off = of_int (Nvram.Offset.to_int off)
let to_offset buf = Nvram.Offset.of_int (to_int buf)
let of_string s = Bytes.of_string s
let to_string buf = Bytes.to_string buf

let answer_of_bool b = if b then 1L else 0L
let bool_of_answer v = not (Int64.equal v 0L)
let answer_of_int = Int64.of_int
let int_of_answer = Int64.to_int

let answer_of_int_option = function
  | Some v -> Int64.of_int v
  | None -> Int64.min_int

let int_option_of_answer v =
  if Int64.equal v Int64.min_int then None else Some (Int64.to_int v)
