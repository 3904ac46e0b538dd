module Offset = Nvram.Offset

type view = Frame.view = Volatile | Persistent

type line =
  | Frame of {
      off : Nvram.Offset.t;
      func_id : int;
      args_len : int;
      answer : int64 option;
      last : bool;
      crc_ok : bool;
    }
  | Pointer_frame of {
      off : Nvram.Offset.t;
      next : Nvram.Offset.t;
      crc_ok : bool;
    }
  | Invalid_tail of { off : Nvram.Offset.t; note : string }

let scan ~follow_pointers pmem view start =
  let stop acc off note = List.rev (Invalid_tail { off; note } :: acc) in
  let rec go off acc =
    match Frame.peek pmem view ~at:off with
    | Error { Frame.reason; _ } -> stop acc off reason
    | Ok { scanned = Frame.Ordinary { frame; size; last }; crc_ok } ->
        let slot = Frame.peek_answer pmem view ~frame:off in
        let line =
          Frame
            {
              off;
              func_id = frame.Frame.func_id;
              args_len = Bytes.length frame.Frame.args;
              answer = (match slot with Frame.Answer v -> Some v | _ -> None);
              last;
              crc_ok = crc_ok && slot <> Frame.Torn;
            }
        in
        let after = Offset.add off size in
        if last then stop (line :: acc) after "invalid data"
        else go after (line :: acc)
    | Ok { scanned = Frame.Pointer { next; size; last }; crc_ok } ->
        let acc = Pointer_frame { off; next; crc_ok } :: acc in
        let after = Offset.add off size in
        if last then stop acc after "pointer frame marked as stack top"
        else if follow_pointers then go next acc
        else stop acc after "pointer frame not followed"
  in
  go start []

let scan_region pmem ~view ~base = scan ~follow_pointers:false pmem view base

let scan_linked pmem ~view ~anchor =
  let peek =
    match view with
    | Volatile -> Nvram.Pmem.peek_volatile
    | Persistent -> Nvram.Pmem.peek_persistent
  in
  let first = Bytes.get_int64_le (peek pmem ~off:anchor ~len:8) 0 in
  scan ~follow_pointers:true pmem view (Offset.of_int (Int64.to_int first))

let pp_line fmt = function
  | Frame { off; func_id; args_len; answer; last; crc_ok } ->
      Format.fprintf fmt "%a ordinary id=%d args=%dB answer=%s marker=%s crc=%s"
        Offset.pp off func_id args_len
        (match answer with
        | None -> "-"
        | Some v -> Int64.to_string v)
        (if last then "STACK-END" else "frame-end")
        (if crc_ok then "ok" else "BAD")
  | Pointer_frame { off; next; crc_ok } ->
      Format.fprintf fmt "%a pointer -> %a crc=%s" Offset.pp off Offset.pp next
        (if crc_ok then "ok" else "BAD")
  | Invalid_tail { off; note } ->
      Format.fprintf fmt "%a %s" Offset.pp off note

let render lines =
  Format.asprintf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_line)
    lines
