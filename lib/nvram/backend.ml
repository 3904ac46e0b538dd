open Bigarray

type image = (char, int8_unsigned_elt, c_layout) Array1.t

type t = { data : image; fd : Unix.file_descr option; persist_delay : float }
(* One storage path for both backends: [data] is an anonymous Bigarray for
   the memory backend and a shared mapping of the image file for the file
   backend, so a persist is a run of stores either way.  Worker domains
   persist disjoint cache lines in parallel; nothing here needs a lock. *)

external image_get64 : image -> int -> int64 = "%caml_bigstring_get64u"
external image_set64 : image -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bytes_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let memory ~size =
  let data = Array1.create char c_layout size in
  Array1.fill data '\000';
  { data; fd = None; persist_delay = 0. }

let file ?(persist_delay = 0.) ~path ~size () =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let existing = (Unix.fstat fd).Unix.st_size in
  if existing <> 0 && existing <> size then begin
    Unix.close fd;
    invalid_arg
      (Printf.sprintf "Backend.file: %s has size %d, expected %d" path
         existing size)
  end;
  (* A shared mapping grows an empty file to [size] zero bytes. *)
  match Unix.map_file fd char c_layout true [| size |] with
  | data -> { data = array1_of_genarray data; fd = Some fd; persist_delay }
  | exception e ->
      Unix.close fd;
      raise e

let size t = Array1.dim t.data

let check_range t off len =
  if off < 0 || len < 0 || off + len > size t then
    invalid_arg
      (Printf.sprintf "Backend: range [%d, %d) outside image of size %d" off
         (off + len) (size t))

let check_bytes name b off len =
  if off < 0 || off + len > Bytes.length b then
    invalid_arg (Printf.sprintf "Backend.%s: buffer range out of bounds" name)

(* Both copies split the range at image offsets: single bytes up to the
   first 8-byte boundary, aligned 8-byte words in ascending order, then a
   byte tail.  The image starts 8-byte aligned (a page-aligned mapping or
   a fresh allocation), so [off land 7 = 0] is real alignment and each
   word store is atomic.  Neither loop allocates. *)
let head_len off len = min len ((8 - (off land 7)) land 7)

let blit_to t ~off ~dst ~dst_off ~len =
  check_range t off len;
  check_bytes "blit_to" dst dst_off len;
  let head = head_len off len in
  let words = (len - head) lsr 3 in
  for i = 0 to head - 1 do
    Bytes.unsafe_set dst (dst_off + i) (Array1.unsafe_get t.data (off + i))
  done;
  for w = 0 to words - 1 do
    let i = head + (w lsl 3) in
    bytes_set64 dst (dst_off + i) (image_get64 t.data (off + i))
  done;
  for i = head + (words lsl 3) to len - 1 do
    Bytes.unsafe_set dst (dst_off + i) (Array1.unsafe_get t.data (off + i))
  done

let read t ~off ~len =
  check_range t off len;
  let dst = Bytes.create len in
  blit_to t ~off ~dst ~dst_off:0 ~len;
  dst

let persist t ~off ~src ~src_off ~len =
  check_range t off len;
  check_bytes "persist" src src_off len;
  if t.persist_delay > 0. then Unix.sleepf t.persist_delay;
  let head = head_len off len in
  let words = (len - head) lsr 3 in
  for i = 0 to head - 1 do
    Array1.unsafe_set t.data (off + i) (Bytes.unsafe_get src (src_off + i))
  done;
  for w = 0 to words - 1 do
    let i = head + (w lsl 3) in
    image_set64 t.data (off + i) (bytes_get64 src (src_off + i))
  done;
  for i = head + (words lsl 3) to len - 1 do
    Array1.unsafe_set t.data (off + i) (Bytes.unsafe_get src (src_off + i))
  done

let flip_bit t ~off ~bit =
  check_range t off 1;
  if bit < 0 || bit > 7 then invalid_arg "Backend.flip_bit: bit out of range";
  let v = Char.code (Array1.unsafe_get t.data off) lxor (1 lsl bit) in
  Array1.unsafe_set t.data off (Char.unsafe_chr v)

let close t = Option.iter Unix.close t.fd
