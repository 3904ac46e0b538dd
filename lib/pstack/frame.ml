module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Integrity = Nvram.Integrity

type t = { func_id : int; args : bytes }

let preamble_ordinary = 0xA
let preamble_pointer = 0xB
let marker_frame_end = 0x0
let marker_stack_end = 0x1
let ordinary_header_size = 34
let ordinary_size ~args_len = ordinary_header_size + args_len + 1
let pointer_size = 11
let dummy_func_id = 0

let answer_flag_rel = 9
let answer_value_rel = 10
let args_len_rel = 18
let crc_rel = 26
let func_id_rel = 1
let pointer_code_rel = 9

let check_marker m =
  if m <> marker_frame_end && m <> marker_stack_end then
    invalid_arg (Printf.sprintf "Frame: invalid end marker 0x%X" m)

(* The frame CRC covers the immutable part of an ordinary frame — the
   preamble, the function id, the argument length and the arguments — and
   deliberately excludes the answer slot (rewritten after the push by the
   callee, protected by its own one-byte code) and the end marker (flipped
   by every neighbouring push/pop; its two legal values are their own
   check).  It is accumulated in its own slot, so a push allocates
   nothing. *)
let write_crc buf ~args ~args_len =
  Bytes.set_int64_le buf crc_rel Integrity.fnv64_init;
  Integrity.fnv64_into buf ~at:crc_rel buf ~pos:0 ~len:9;
  Integrity.fnv64_into buf ~at:crc_rel buf ~pos:args_len_rel ~len:8;
  Integrity.fnv64_into buf ~at:crc_rel args ~pos:0 ~len:args_len

let encode_ordinary_into buf ~func_id ~args ~marker =
  check_marker marker;
  let args_len = Bytes.length args in
  if Bytes.length buf <> ordinary_size ~args_len then
    invalid_arg "Frame.encode_ordinary_into: buffer size mismatch";
  Bytes.set buf 0 (Char.chr preamble_ordinary);
  Bytes.set_int64_le buf func_id_rel (Int64.of_int func_id);
  (* the answer slot is zeroed explicitly: the buffer may be reused *)
  Bytes.fill buf answer_flag_rel 9 '\000';
  Bytes.set_int64_le buf args_len_rel (Int64.of_int args_len);
  write_crc buf ~args ~args_len;
  Bytes.blit args 0 buf ordinary_header_size args_len;
  Bytes.set buf (ordinary_header_size + args_len) (Char.chr marker)

let encode_ordinary frame ~marker =
  let buf =
    Bytes.create (ordinary_size ~args_len:(Bytes.length frame.args))
  in
  encode_ordinary_into buf ~func_id:frame.func_id ~args:frame.args ~marker;
  buf

let pointer_code next = Integrity.code_of_int64 (Int64.of_int next)

let encode_pointer ~next ~marker =
  check_marker marker;
  let buf = Bytes.make pointer_size '\000' in
  Bytes.set buf 0 (Char.chr preamble_pointer);
  Bytes.set_int64_le buf 1 (Int64.of_int (Offset.to_int next));
  Bytes.set buf pointer_code_rel (Char.chr (pointer_code (Offset.to_int next)));
  Bytes.set buf (pointer_size - 1) (Char.chr marker);
  buf

type scanned =
  | Ordinary of { frame : t; size : int; last : bool }
  | Pointer of { next : Nvram.Offset.t; size : int; last : bool }

type corruption = {
  at : Nvram.Offset.t;
  reason : string;
  crc_mismatch : bool;
}

type view = Volatile | Persistent
type peeked = { scanned : scanned; crc_ok : bool }

(* Where the decoder reads its bytes: the device's tracked reads (counted,
   crash points of an armed plan) for recovery, or untracked peeks for
   inspection, which must not perturb the crash schedule. *)
type source = Tracked of Pmem.t | Peek of Pmem.t * view

let bytes_at src ~off ~len =
  match src with
  | Tracked pmem -> Pmem.read_bytes pmem ~off ~len
  | Peek (pmem, Volatile) -> Pmem.peek_volatile pmem ~off ~len
  | Peek (pmem, Persistent) -> Pmem.peek_persistent pmem ~off ~len

let byte_at src off =
  match src with
  | Tracked pmem -> Pmem.read_byte pmem off
  | Peek _ -> Char.code (Bytes.get (bytes_at src ~off ~len:1) 0)

let int64_at src off =
  match src with
  | Tracked pmem -> Pmem.read_int64 pmem off
  | Peek _ -> Bytes.get_int64_le (bytes_at src ~off ~len:8) 0

let marker_offset ~at ~size = Offset.add at (size - 1)

let corrupt ~at ~crc_mismatch fmt =
  Printf.ksprintf (fun reason -> Error { at; reason; crc_mismatch }) fmt

(* [Ok last]: whether the frame's marker is the stack end. *)
let read_marker src ~at ~size =
  let m = byte_at src (marker_offset ~at ~size) in
  if m = marker_stack_end then Ok true
  else if m = marker_frame_end then Ok false
  else corrupt ~at ~crc_mismatch:false "invalid end marker 0x%X" m

(* The one decoder of the format.  [verify] makes a checksum mismatch an
   [Error] before the marker is read (recovery stops there); without it the
   frame decodes as is and [crc_ok] reports the mismatch (inspection shows
   a damaged frame instead of stopping at it).  Structural damage is an
   [Error] either way. *)
let decode src ~verify ~at =
  let device_size = Pmem.size (match src with Tracked p | Peek (p, _) -> p) in
  if Offset.to_int at >= device_size then
    corrupt ~at ~crc_mismatch:false "frame start beyond the end of the device"
  else
    let preamble = byte_at src at in
    if preamble = preamble_ordinary then begin
      let func_id = Int64.to_int (int64_at src (Offset.add at func_id_rel)) in
      let args_len = Int64.to_int (int64_at src (Offset.add at args_len_rel)) in
      if
        args_len < 0 || Offset.to_int at + ordinary_size ~args_len > device_size
      then corrupt ~at ~crc_mismatch:false "corrupt argument length %d" args_len
      else begin
        let args =
          bytes_at src ~off:(Offset.add at ordinary_header_size) ~len:args_len
        in
        let stored = int64_at src (Offset.add at crc_rel) in
        let computed =
          let h = Integrity.fnv64_byte Integrity.fnv64_init preamble in
          let h = Integrity.fnv64_int64 h (Int64.of_int func_id) in
          let h = Integrity.fnv64_int64 h (Int64.of_int args_len) in
          Integrity.fnv64_sub h args ~pos:0 ~len:args_len
        in
        let crc_ok = Int64.equal stored computed in
        if verify && not crc_ok then
          corrupt ~at ~crc_mismatch:true "frame checksum mismatch"
        else
          let size = ordinary_size ~args_len in
          match read_marker src ~at ~size with
          | Error c -> Error c
          | Ok last ->
              let frame = { func_id; args } in
              Ok { scanned = Ordinary { frame; size; last }; crc_ok }
      end
    end
    else if preamble = preamble_pointer then begin
      let next = Int64.to_int (int64_at src (Offset.add at 1)) in
      let code = byte_at src (Offset.add at pointer_code_rel) in
      let crc_ok = code = pointer_code next in
      if verify && not crc_ok then
        corrupt ~at ~crc_mismatch:true "pointer frame checksum mismatch"
      else
        match read_marker src ~at ~size:pointer_size with
        | Error c -> Error c
        | Ok _ when next < 0 || next >= device_size ->
            corrupt ~at ~crc_mismatch:false
              "pointer frame to invalid offset %d" next
        | Ok last ->
            let next = Offset.of_int next and size = pointer_size in
            Ok { scanned = Pointer { next; size; last }; crc_ok }
    end
    else corrupt ~at ~crc_mismatch:false "invalid preamble 0x%X" preamble

let read pmem ~at =
  match decode (Tracked pmem) ~verify:(Integrity.enabled ()) ~at with
  | Ok { scanned; _ } -> Ok scanned
  | Error c -> Error c

let peek pmem view ~at = decode (Peek (pmem, view)) ~verify:false ~at

let read_exn pmem ~at =
  match read pmem ~at with
  | Ok scanned -> scanned
  | Error { at; reason; _ } ->
      invalid_arg
        (Printf.sprintf "Frame.read: %s at %d" reason (Offset.to_int at))

let pp_corruption fmt { at; reason; crc_mismatch } =
  Format.fprintf fmt "%s at %d%s" reason (Offset.to_int at)
    (if crc_mismatch then " (checksum)" else "")

(* The answer flag byte doubles as a one-byte integrity code of the value:
   0 = no answer, anything else must equal [Integrity.code_of_int64 value]
   (never 0 by construction).  [write_answer]'s flush covers a byte range
   that can straddle two cache lines, so a crash can persist the code
   without the value — the code then disagrees with whatever the value
   bytes hold, the answer reads as absent, and recovery re-runs the callee
   instead of trusting a half-persisted result. *)
let answer_code_ok ~code v = code = Integrity.code_of_int64 v

let read_answer pmem ~frame =
  let code = Pmem.read_byte pmem (Offset.add frame answer_flag_rel) in
  if code = 0 then None
  else begin
    let v = Pmem.read_int64 pmem (Offset.add frame answer_value_rel) in
    if (not (Integrity.enabled ())) || answer_code_ok ~code v then Some v
    else begin
      Obs.Counters.incr Obs.Probe.counters Faults_detected;
      None
    end
  end

type slot = Empty | Answer of int64 | Torn

let peek_answer pmem view ~frame =
  let src = Peek (pmem, view) in
  let code = byte_at src (Offset.add frame answer_flag_rel) in
  if code = 0 then Empty
  else
    let v = int64_at src (Offset.add frame answer_value_rel) in
    if answer_code_ok ~code v then Answer v else Torn

let write_answer pmem ~frame v =
  Pmem.write_int64 pmem (Offset.add frame answer_value_rel) v;
  Pmem.write_byte pmem
    (Offset.add frame answer_flag_rel)
    (Integrity.code_of_int64 v);
  Pmem.flush pmem ~off:(Offset.add frame answer_flag_rel) ~len:9

let clear_answer pmem ~frame =
  Pmem.write_byte pmem (Offset.add frame answer_flag_rel) 0;
  Pmem.flush_byte pmem (Offset.add frame answer_flag_rel)
