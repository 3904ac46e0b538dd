module Integrity = Nvram.Integrity

type op =
  | Ping
  | Put of int * int
  | Get of int
  | Del of int
  | Enqueue of int
  | Dequeue
  | Last_seq

type request = { client : int; seq : int; op : op }
type result = Value of int | Nothing | Done | Refused of int
type response = { client : int; seq : int; result : result }

let err_stale = 1
let err_unknown = 2
let err_shutdown = 3
let err_bad_request = 4

let err_name = function
  | 1 -> "stale"
  | 2 -> "unknown-client"
  | 3 -> "shutdown"
  | 4 -> "bad-request"
  | n -> Printf.sprintf "error-%d" n

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Oversized of int
  | Bad_crc
  | Malformed of string

type 'a decoded = Complete of 'a * int | Incomplete | Broken of error

let version = 1
let kind_request = 1
let kind_response = 2
let header_size = 8
let overhead = header_size + 8
let max_payload = 1 lsl 20

let opcode = function
  | Ping -> 0
  | Put _ -> 1
  | Get _ -> 2
  | Del _ -> 3
  | Enqueue _ -> 4
  | Dequeue -> 5
  | Last_seq -> 6

let operands = function
  | Ping | Dequeue | Last_seq -> []
  | Put (k, v) -> [ k; v ]
  | Get k | Del k -> [ k ]
  | Enqueue v -> [ v ]

let frame ~kind payload_len fill =
  let buf = Bytes.create (overhead + payload_len) in
  Bytes.set buf 0 'N';
  Bytes.set buf 1 'K';
  Bytes.set buf 2 (Char.chr version);
  Bytes.set buf 3 (Char.chr kind);
  Bytes.set_int32_le buf 4 (Int32.of_int payload_len);
  fill buf header_size;
  Bytes.set_int64_le buf (header_size + payload_len)
    (Integrity.fnv64 buf ~pos:0 ~len:(header_size + payload_len));
  buf

let encode_request { client; seq; op } =
  let ops = operands op in
  frame ~kind:kind_request
    (17 + (8 * List.length ops))
    (fun buf off ->
      Bytes.set_int64_le buf off (Int64.of_int client);
      Bytes.set_int64_le buf (off + 8) (Int64.of_int seq);
      Bytes.set buf (off + 16) (Char.chr (opcode op));
      List.iteri
        (fun i v ->
          Bytes.set_int64_le buf (off + 17 + (8 * i)) (Int64.of_int v))
        ops)

let status_of_result = function
  | Value _ -> 0
  | Nothing -> 1
  | Done -> 2
  | Refused _ -> 3

let result_payload = function
  | Value v -> v
  | Refused code -> code
  | Nothing | Done -> 0

let response_payload = 25

let encode_response { client; seq; result } =
  frame ~kind:kind_response response_payload (fun buf off ->
      Bytes.set_int64_le buf off (Int64.of_int client);
      Bytes.set_int64_le buf (off + 8) (Int64.of_int seq);
      Bytes.set buf (off + 16) (Char.chr (status_of_result result));
      Bytes.set_int64_le buf (off + 17) (Int64.of_int (result_payload result)))

(* Progressive header validation: bytes already received are judged
   immediately (wrong magic in a one-byte buffer is Broken), bytes not yet
   received keep the verdict at Incomplete.  [Complete (plen, consumed)]
   means a whole CRC-verified frame of the expected kind starts at [pos]. *)
let decode_frame buf ~pos ~len ~expect =
  let byte i = Bytes.get buf (pos + i) in
  if len >= 1 && byte 0 <> 'N' then Broken Bad_magic
  else if len >= 2 && byte 1 <> 'K' then Broken Bad_magic
  else if len >= 3 && Char.code (byte 2) <> version then
    Broken (Bad_version (Char.code (byte 2)))
  else if len >= 4 && Char.code (byte 3) <> expect then
    Broken (Bad_kind (Char.code (byte 3)))
  else if len < header_size then Incomplete
  else
    let plen = Int32.to_int (Bytes.get_int32_le buf (pos + 4)) in
    if plen < 0 || plen > max_payload then Broken (Oversized plen)
    else if len < overhead + plen then Incomplete
    else
      let stored = Bytes.get_int64_le buf (pos + header_size + plen) in
      let computed = Integrity.fnv64 buf ~pos ~len:(header_size + plen) in
      if not (Int64.equal stored computed) then Broken Bad_crc
      else Complete (plen, overhead + plen)

let get_i buf off = Int64.to_int (Bytes.get_int64_le buf off)

let decode_request ?(pos = 0) buf ~len =
  match decode_frame buf ~pos ~len ~expect:kind_request with
  | Incomplete -> Incomplete
  | Broken e -> Broken e
  | Complete (plen, consumed) ->
      if plen < 17 then Broken (Malformed "request payload too short")
      else if (plen - 17) mod 8 <> 0 then
        Broken (Malformed "ragged operand bytes")
      else
        let body = pos + header_size in
        let client = get_i buf body in
        let seq = get_i buf (body + 8) in
        let code = Char.code (Bytes.get buf (body + 16)) in
        let nops = (plen - 17) / 8 in
        let operand i = get_i buf (body + 17 + (8 * i)) in
        let op =
          match (code, nops) with
          | 0, 0 -> Some Ping
          | 1, 2 -> Some (Put (operand 0, operand 1))
          | 2, 1 -> Some (Get (operand 0))
          | 3, 1 -> Some (Del (operand 0))
          | 4, 1 -> Some (Enqueue (operand 0))
          | 5, 0 -> Some Dequeue
          | 6, 0 -> Some Last_seq
          | _ -> None
        in
        (match op with
        | None ->
            Broken
              (Malformed
                 (Printf.sprintf "opcode %d with %d operand(s)" code nops))
        | Some op -> Complete ({ client; seq; op }, consumed))

let decode_response buf ~len =
  match decode_frame buf ~pos:0 ~len ~expect:kind_response with
  | Incomplete -> Incomplete
  | Broken e -> Broken e
  | Complete (plen, consumed) ->
      if plen <> response_payload then
        Broken (Malformed "response payload size")
      else
        let client = get_i buf header_size in
        let seq = get_i buf (header_size + 8) in
        let status = Char.code (Bytes.get buf (header_size + 16)) in
        let value = get_i buf (header_size + 17) in
        let result =
          match status with
          | 0 -> Some (Value value)
          | 1 -> Some Nothing
          | 2 -> Some Done
          | 3 -> Some (Refused value)
          | _ -> None
        in
        (match result with
        | None -> Broken (Malformed (Printf.sprintf "status %d" status))
        | Some result -> Complete ({ client; seq; result }, consumed))

let pp_op fmt = function
  | Ping -> Format.pp_print_string fmt "ping"
  | Put (k, v) -> Format.fprintf fmt "put %d %d" k v
  | Get k -> Format.fprintf fmt "get %d" k
  | Del k -> Format.fprintf fmt "del %d" k
  | Enqueue v -> Format.fprintf fmt "enqueue %d" v
  | Dequeue -> Format.pp_print_string fmt "dequeue"
  | Last_seq -> Format.pp_print_string fmt "last-seq"

let pp_result fmt = function
  | Value v -> Format.fprintf fmt "value %d" v
  | Nothing -> Format.pp_print_string fmt "nothing"
  | Done -> Format.pp_print_string fmt "done"
  | Refused code -> Format.fprintf fmt "refused (%s)" (err_name code)

let pp_error fmt = function
  | Bad_magic -> Format.pp_print_string fmt "bad magic"
  | Bad_version v -> Format.fprintf fmt "bad version %d" v
  | Bad_kind k -> Format.fprintf fmt "bad frame kind %d" k
  | Oversized n -> Format.fprintf fmt "oversized payload length %d" n
  | Bad_crc -> Format.pp_print_string fmt "bad crc"
  | Malformed what -> Format.fprintf fmt "malformed frame: %s" what

let op_to_string op = Format.asprintf "%a" pp_op op

let op_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "ping" ] -> Some Ping
  | [ "put"; k; v ] -> (
      match (int_of_string_opt k, int_of_string_opt v) with
      | Some k, Some v -> Some (Put (k, v))
      | _ -> None)
  | [ "get"; k ] -> Option.map (fun k -> Get k) (int_of_string_opt k)
  | [ "del"; k ] -> Option.map (fun k -> Del k) (int_of_string_opt k)
  | [ "enqueue"; v ] ->
      Option.map (fun v -> Enqueue v) (int_of_string_opt v)
  | [ "dequeue" ] -> Some Dequeue
  | [ "last-seq" ] -> Some Last_seq
  | _ -> None
