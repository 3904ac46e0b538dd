(* Tests for the persistent stack: frame codec, the three implementations
   behind one interface, answer slots, crash-point sweeps of the push/pop
   protocols, and the unbounded stacks' block management. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Crash = Nvram.Crash
module Heap = Nvheap.Heap
module Frame = Pstack.Frame

let off = Offset.of_int

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)

let test_codec_roundtrip () =
  let pmem = Pmem.create ~size:4096 () in
  let frame = { Frame.func_id = 77; args = Bytes.of_string "payload" } in
  let image = Frame.encode_ordinary frame ~marker:Frame.marker_stack_end in
  Alcotest.(check int) "size" (Frame.ordinary_size ~args_len:7)
    (Bytes.length image);
  Pmem.write_bytes pmem ~off:(off 100) image;
  (match Frame.read_exn pmem ~at:(off 100) with
  | Frame.Ordinary { frame = f; size; last } ->
      Alcotest.(check int) "func_id" 77 f.Frame.func_id;
      Alcotest.(check string) "args" "payload" (Bytes.to_string f.Frame.args);
      Alcotest.(check int) "size" (Bytes.length image) size;
      Alcotest.(check bool) "last" true last
  | Frame.Pointer _ -> Alcotest.fail "expected ordinary frame");
  let pointer =
    Frame.encode_pointer ~next:(off 640) ~marker:Frame.marker_frame_end
  in
  Alcotest.(check int) "pointer size" Frame.pointer_size (Bytes.length pointer);
  Pmem.write_bytes pmem ~off:(off 200) pointer;
  match Frame.read_exn pmem ~at:(off 200) with
  | Frame.Pointer { next; size; last } ->
      Alcotest.(check int) "next" 640 (Offset.to_int next);
      Alcotest.(check int) "psize" Frame.pointer_size size;
      Alcotest.(check bool) "not last" false last
  | Frame.Ordinary _ -> Alcotest.fail "expected pointer frame"

(* Regression for the raise-on-corrupt decoder: [Frame.read] must return a
   typed corruption, never raise — corrupt media is an expected input to
   recovery, not a programming error. *)
let test_codec_rejects_garbage () =
  let pmem = Pmem.create ~size:4096 () in
  Pmem.write_byte pmem (off 0) 0x5A;
  match Frame.read pmem ~at:(off 0) with
  | exception exn ->
      Alcotest.failf "Frame.read raised %s on a corrupt preamble"
        (Printexc.to_string exn)
  | Ok _ -> Alcotest.fail "decoded garbage as a frame"
  | Error c ->
      Alcotest.(check int) "corruption offset" 0 (Offset.to_int c.Frame.at);
      Alcotest.(check bool)
        "structural damage, not a checksum miss" false c.Frame.crc_mismatch

let test_codec_detects_bitrot () =
  let pmem = Pmem.create ~size:4096 () in
  let frame = { Frame.func_id = 9; args = Bytes.of_string "abcdefgh" } in
  Pmem.write_bytes pmem ~off:(off 0)
    (Frame.encode_ordinary frame ~marker:Frame.marker_stack_end);
  (* Flip one bit inside the argument bytes: the shape stays plausible, so
     only the checksum can notice. *)
  let arg0 = Offset.of_int Frame.ordinary_header_size in
  Pmem.write_byte pmem arg0 (Char.code 'a' lxor 0x10);
  (match Frame.read pmem ~at:(off 0) with
  | Ok _ -> Alcotest.fail "bit rot in the arguments went undetected"
  | Error c ->
      Alcotest.(check bool) "flagged as checksum miss" true c.Frame.crc_mismatch);
  (* Put the byte back: the frame must verify again. *)
  Pmem.write_byte pmem arg0 (Char.code 'a');
  match Frame.read pmem ~at:(off 0) with
  | Ok (Frame.Ordinary { frame = f; _ }) ->
      Alcotest.(check int) "func_id intact" 9 f.Frame.func_id
  | Ok (Frame.Pointer _) -> Alcotest.fail "expected ordinary frame"
  | Error c ->
      Alcotest.failf "restored frame still rejected: %a" Frame.pp_corruption c

let test_answer_slot () =
  let pmem = Pmem.create ~size:4096 () in
  let frame = { Frame.func_id = 5; args = Bytes.empty } in
  Pmem.write_bytes pmem ~off:(off 0)
    (Frame.encode_ordinary frame ~marker:Frame.marker_stack_end);
  Alcotest.(check (option int64)) "initially empty" None
    (Frame.read_answer pmem ~frame:(off 0));
  Frame.write_answer pmem ~frame:(off 0) 42L;
  Alcotest.(check (option int64)) "written" (Some 42L)
    (Frame.read_answer pmem ~frame:(off 0));
  (* the slot write flushes, so it must already be persistent *)
  Pmem.crash_and_restart pmem;
  Alcotest.(check (option int64)) "persisted" (Some 42L)
    (Frame.read_answer pmem ~frame:(off 0));
  Frame.clear_answer pmem ~frame:(off 0);
  Alcotest.(check (option int64)) "cleared" None
    (Frame.read_answer pmem ~frame:(off 0))

(* ------------------------------------------------------------------ *)
(* The three implementations behind the common interface               *)

type harness =
  | Harness : {
      name : string;
      stack : (module Pstack.Stack_intf.S with type t = 's);
      make : unit -> Pmem.t * 's;
      reattach : Pmem.t -> 's;
    }
      -> harness

let bounded_harness =
  Harness
    {
      name = "bounded";
      stack = (module Pstack.Bounded);
      make =
        (fun () ->
          let pmem = Pmem.create ~size:65536 () in
          (pmem, Pstack.Bounded.create pmem ~base:(off 0) ~capacity:8192));
      reattach =
        (fun pmem -> Pstack.Bounded.attach pmem ~base:(off 0) ~capacity:8192);
    }

let with_heap () =
  let pmem = Pmem.create ~size:(1 lsl 20) () in
  let heap = Heap.format pmem ~base:(off 64) ~len:(1 lsl 19) in
  (pmem, heap)

let resizable_harness =
  Harness
    {
      name = "resizable";
      stack = (module Pstack.Resizable);
      make =
        (fun () ->
          let pmem, heap = with_heap () in
          (pmem, Pstack.Resizable.create pmem ~heap ~anchor:(off 0) ()));
      reattach =
        (fun pmem ->
          let heap = Heap.open_existing pmem ~base:(off 64) in
          Pstack.Resizable.attach pmem ~heap ~anchor:(off 0));
    }

let linked_harness =
  Harness
    {
      name = "linked";
      stack = (module Pstack.Linked);
      make =
        (fun () ->
          let pmem, heap = with_heap () in
          ( pmem,
            Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:128 ()
          ));
      reattach =
        (fun pmem ->
          let heap = Heap.open_existing pmem ~base:(off 64) in
          Pstack.Linked.attach pmem ~heap ~block_size:128 ~anchor:(off 0) ());
    }

let harnesses = [ bounded_harness; resizable_harness; linked_harness ]

let args_of n = Bytes.of_string (Printf.sprintf "args-%d" n)

let test_push_pop (Harness h) () =
  let module S = (val h.stack) in
  let _pmem, s = h.make () in
  Alcotest.(check int) "fresh depth" 0 (S.depth s);
  Alcotest.(check bool) "fresh top" true (S.top s = None);
  S.push s ~func_id:2 ~args:(args_of 2);
  S.push s ~func_id:3 ~args:(args_of 3);
  S.push s ~func_id:4 ~args:(args_of 4);
  Alcotest.(check int) "depth 3" 3 (S.depth s);
  (match S.top s with
  | Some (_, f) -> Alcotest.(check int) "top id" 4 f.Frame.func_id
  | None -> Alcotest.fail "top expected");
  let ids = List.map (fun (_, f) -> f.Frame.func_id) (S.frames s) in
  Alcotest.(check (list int)) "bottom to top" [ 2; 3; 4 ] ids;
  S.pop s;
  Alcotest.(check int) "depth 2" 2 (S.depth s);
  (match S.top s with
  | Some (_, f) ->
      Alcotest.(check int) "new top id" 3 f.Frame.func_id;
      Alcotest.(check string) "args preserved" "args-3"
        (Bytes.to_string f.Frame.args)
  | None -> Alcotest.fail "top expected");
  S.pop s;
  S.pop s;
  Alcotest.(check int) "empty" 0 (S.depth s);
  Alcotest.(check bool) "pop empty raises" true
    (match S.pop s with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_attach_matches (Harness h) () =
  let module S = (val h.stack) in
  let pmem, s = h.make () in
  List.iter (fun i -> S.push s ~func_id:i ~args:(args_of i)) [ 2; 3; 4; 5 ];
  S.pop s;
  let s' = h.reattach pmem in
  Alcotest.(check int) "depth preserved" (S.depth s) (S.depth s');
  let ids st = List.map (fun (_, f) -> f.Frame.func_id) (S.frames st) in
  Alcotest.(check (list int)) "frames preserved" (ids s) (ids s')

let test_answer_via_interface (Harness h) () =
  let module S = (val h.stack) in
  let pmem, s = h.make () in
  S.push s ~func_id:2 ~args:Bytes.empty;
  S.push s ~func_id:3 ~args:Bytes.empty;
  (* callee (3) deposits an answer in the caller (2)'s frame *)
  Frame.write_answer pmem ~frame:(S.under_top_offset s) 99L;
  S.pop s;
  Alcotest.(check (option int64)) "caller sees answer" (Some 99L)
    (Frame.read_answer pmem ~frame:(S.top_offset s))

let test_deep_stack (Harness h) () =
  let module S = (val h.stack) in
  let pmem, s = h.make () in
  let n = 60 in
  for i = 1 to n do
    S.push s ~func_id:(i + 1) ~args:(args_of i)
  done;
  Alcotest.(check int) "deep" n (S.depth s);
  let s' = h.reattach pmem in
  Alcotest.(check int) "deep reattach" n (S.depth s');
  for _ = 1 to n do
    S.pop s
  done;
  Alcotest.(check int) "drained" 0 (S.depth s)

(* Crash-point sweep of the push/pop protocol: crash before every
   persistence operation of a scripted workload; the reattached stack must
   decode to one of the states the linearization points allow (a prefix of
   the scripted history). *)
let test_crash_point_sweep (Harness h) () =
  let module S = (val h.stack) in
  let script s =
    S.push s ~func_id:2 ~args:(args_of 1);
    S.push s ~func_id:3 ~args:(Bytes.make 100 'x') (* long frame, Fig. 5 *);
    S.pop s;
    S.push s ~func_id:4 ~args:Bytes.empty;
    S.pop s;
    S.pop s
  in
  let legal_histories = [ []; [ 2 ]; [ 2; 3 ]; [ 2; 4 ] ] in
  let total =
    let pmem, s = h.make () in
    let before = Crash.ops (Pmem.crash_ctl pmem) in
    script s;
    Crash.ops (Pmem.crash_ctl pmem) - before
  in
  Alcotest.(check bool) "script persists" true (total > 10);
  for point = 1 to total do
    let pmem, s = h.make () in
    Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op point);
    (try script s with Crash.Crash_now -> ());
    Pmem.crash_and_restart pmem;
    let s' = h.reattach pmem in
    let ids = List.map (fun (_, f) -> f.Frame.func_id) (S.frames s') in
    if not (List.mem ids legal_histories) then
      Alcotest.failf "crash at op %d/%d left illegal stack [%s]" point total
        (String.concat ";" (List.map string_of_int ids))
  done

(* ------------------------------------------------------------------ *)
(* Differential property: one seed, three implementations              *)

(* One seeded op sequence drives all three stacks.  The generator tracks
   depth so pops never underflow, and every push carries a distinct
   func_id plus random-length args. *)
let gen_script ~seed ~n =
  let rng = Random.State.make [| 0x9e37; seed |] in
  let depth = ref 0 in
  List.init n (fun i ->
      if !depth > 0 && Random.State.int rng 3 = 0 then begin
        decr depth;
        `Pop
      end
      else begin
        incr depth;
        `Push (i + 2, Random.State.int rng 48)
      end)

(* The pure model: contents ((func_id, args) bottom to top) after each
   prefix of the script; index k = state after k completed operations. *)
let model_states script =
  let step st = function
    | `Push (id, len) -> (id, String.make len 'p') :: st
    | `Pop -> List.tl st
  in
  let _, rev_states =
    List.fold_left
      (fun (st, acc) op ->
        let st' = step st op in
        (st', st' :: acc))
      ([], [ [] ]) script
  in
  List.rev_map List.rev rev_states

let pp_contents st =
  String.concat ";"
    (List.map (fun (id, args) -> Printf.sprintf "%d/%d" id (String.length args)) st)

(* Run the first [prefix] ops of [script] on a fresh instance — with an
   optional armed crash point, counted from arming — then power-cycle,
   reattach and read the surviving contents back. *)
let run_and_recover (Harness h) script ~prefix ~crash_at =
  let module S = (val h.stack) in
  let pmem, s = h.make () in
  (match crash_at with
  | Some point -> Crash.arm (Pmem.crash_ctl pmem) (Crash.At_op point)
  | None -> ());
  (try
     List.iteri
       (fun i op ->
         if i < prefix then
           match op with
           | `Push (id, len) -> S.push s ~func_id:id ~args:(Bytes.make len 'p')
           | `Pop -> S.pop s)
       script
   with Crash.Crash_now -> ());
  Pmem.crash_and_restart pmem;
  let s' = h.reattach pmem in
  List.map
    (fun (_, f) -> (f.Frame.func_id, Bytes.to_string f.Frame.args))
    (S.frames s')

(* At every operation boundary the three implementations must recover to
   the same contents — the model's prefix state.  Each push/pop protocol
   flushes before returning, so a power cycle between operations loses
   nothing and any divergence here is an implementation bug, not a legal
   linearization difference. *)
let test_differential_boundary_recovery () =
  let n = 30 in
  let script = gen_script ~seed:1 ~n in
  let states = Array.of_list (model_states script) in
  for k = 0 to n do
    let expected = states.(k) in
    List.iter
      (fun (Harness h as harness) ->
        let got = run_and_recover harness script ~prefix:k ~crash_at:None in
        if got <> expected then
          Alcotest.failf "%s after %d ops recovered [%s], model says [%s]"
            h.name k (pp_contents got) (pp_contents expected))
      harnesses
  done

(* Mid-operation crashes: sweep every persistence point of the whole
   seeded script on each implementation.  Wherever the crash lands, the
   recovered contents must be one of the model's prefix states — the
   linearization points of push and pop make each operation atomic
   across a power cycle, whatever the internal layout (contiguous
   region, resizable segment, linked blocks). *)
let test_differential_crash_sweep () =
  let n = 18 in
  let script = gen_script ~seed:2 ~n in
  let states = model_states script in
  List.iter
    (fun (Harness h as harness) ->
      let total =
        let pmem, s = h.make () in
        let module S = (val h.stack) in
        let before = Crash.ops (Pmem.crash_ctl pmem) in
        List.iter
          (function
            | `Push (id, len) -> S.push s ~func_id:id ~args:(Bytes.make len 'p')
            | `Pop -> S.pop s)
          script;
        Crash.ops (Pmem.crash_ctl pmem) - before
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s script persists" h.name)
        true (total > n);
      for point = 1 to total do
        let got =
          run_and_recover harness script ~prefix:n ~crash_at:(Some point)
        in
        if not (List.mem got states) then
          Alcotest.failf "%s crash at op %d/%d recovered [%s], not a prefix state"
            h.name point total (pp_contents got)
      done)
    harnesses

(* ------------------------------------------------------------------ *)
(* Implementation-specific behaviour                                   *)

let test_bounded_overflow () =
  let pmem = Pmem.create ~size:4096 () in
  let s = Pstack.Bounded.create pmem ~base:(off 0) ~capacity:128 in
  Alcotest.(check bool) "overflow raised" true
    (match
       for i = 1 to 100 do
         Pstack.Bounded.push s ~func_id:(i + 1) ~args:Bytes.empty
       done
     with
    | () -> false
    | exception Pstack.Bounded.Overflow -> true)

let test_resizable_grows_and_shrinks () =
  let pmem, heap = with_heap () in
  ignore pmem;
  let s = Pstack.Resizable.create pmem ~heap ~anchor:(off 0) () in
  let initial = Pstack.Resizable.capacity s in
  for i = 1 to 50 do
    Pstack.Resizable.push s ~func_id:(i + 1) ~args:(Bytes.make 32 'a')
  done;
  Alcotest.(check bool) "grew" true (Pstack.Resizable.capacity s > initial);
  Alcotest.(check bool) "resized at least once" true
    (Pstack.Resizable.resize_count s > 0);
  let grown = Pstack.Resizable.capacity s in
  for _ = 1 to 50 do
    Pstack.Resizable.pop s
  done;
  Alcotest.(check bool) "shrank" true (Pstack.Resizable.capacity s < grown);
  Alcotest.(check int) "single live block" 1
    (List.length (Pstack.Resizable.live_blocks s))

let test_linked_spans_blocks () =
  let pmem, heap = with_heap () in
  ignore pmem;
  let s = Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:128 () in
  Alcotest.(check int) "one block" 1 (Pstack.Linked.block_count s);
  for i = 1 to 20 do
    Pstack.Linked.push s ~func_id:(i + 1) ~args:(Bytes.make 40 'b')
  done;
  Alcotest.(check bool) "multiple blocks" true (Pstack.Linked.block_count s > 1);
  Alcotest.(check int) "depth" 20 (Pstack.Linked.depth s);
  let allocated_at_peak = Heap.block_count heap ~allocated:true in
  for _ = 1 to 20 do
    Pstack.Linked.pop s
  done;
  Alcotest.(check int) "back to one block" 1 (Pstack.Linked.block_count s);
  Alcotest.(check bool) "blocks freed" true
    (Heap.block_count heap ~allocated:true < allocated_at_peak);
  Alcotest.(check int) "drained" 0 (Pstack.Linked.depth s)

(* The bug this pins: [Linked.attach] used to ignore the configured block
   size and rebuild the handle with the 256-byte default, so every block
   chained after a crash-recovery shrank silently.  The handle must honour
   the [block_size] recovery passes in. *)
let test_linked_attach_preserves_block_size () =
  let pmem, heap = with_heap () in
  let s = Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:1024 () in
  Alcotest.(check int) "created with 1024" 1024 (Pstack.Linked.block_size s);
  Pstack.Linked.push s ~func_id:2 ~args:(Bytes.make 100 'a');
  Pmem.crash_and_restart pmem;
  let heap = Heap.recover pmem ~base:(off 64) in
  let s =
    Pstack.Linked.attach pmem ~heap ~block_size:1024 ~anchor:(off 0) ()
  in
  Alcotest.(check int) "attach keeps the configured size" 1024
    (Pstack.Linked.block_size s);
  Alcotest.(check int) "frame survived" 1 (Pstack.Linked.depth s);
  (* Force cross-block pushes on the recovered handle: with the fix every
     chained block is allocated at >= 1024 bytes; with the old behaviour
     they would come out at the 256-byte default. *)
  for i = 1 to 30 do
    Pstack.Linked.push s ~func_id:(i + 2) ~args:(Bytes.make 100 'b')
  done;
  Alcotest.(check bool) "chained blocks" true (Pstack.Linked.block_count s > 1);
  List.iter
    (fun payload ->
      Alcotest.(check bool) "block allocated at configured size" true
        (Heap.payload_size heap payload >= 1024))
    (Pstack.Linked.live_blocks s)

let test_linked_attach_default_falls_back () =
  let pmem, heap = with_heap () in
  let s = Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:1024 () in
  ignore s;
  Pmem.crash_and_restart pmem;
  let heap = Heap.recover pmem ~base:(off 64) in
  (* Without the parameter the handle falls back to the documented default:
     the caller owns threading the configuration through recovery. *)
  let s = Pstack.Linked.attach pmem ~heap ~anchor:(off 0) () in
  Alcotest.(check int) "documented fallback" 256 (Pstack.Linked.block_size s)

let test_linked_big_frame_gets_own_block () =
  let pmem, heap = with_heap () in
  ignore pmem;
  let s = Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:128 () in
  Pstack.Linked.push s ~func_id:2 ~args:(Bytes.make 500 'z');
  Alcotest.(check int) "pushed" 1 (Pstack.Linked.depth s);
  match Pstack.Linked.top s with
  | Some (_, f) ->
      Alcotest.(check int) "big args" 500 (Bytes.length f.Frame.args)
  | None -> Alcotest.fail "top expected"

(* Fig. 6b: skipping the flush of the moved marker makes the pushed frame
   invisible after the crash — its recover function would never run. *)
let test_unsafe_push_violates_invariant_2 () =
  let pmem = Pmem.create ~policy:Pmem.Lose_all ~size:65536 () in
  let s = Pstack.Bounded.create pmem ~base:(off 0) ~capacity:8192 in
  Pstack.Bounded.push s ~func_id:2 ~args:Bytes.empty;
  Pstack.Bounded.unsafe_push ~flush_marker:false s ~func_id:3 ~args:Bytes.empty;
  Alcotest.(check int) "visible before crash" 2 (Pstack.Bounded.depth s);
  Pmem.crash_and_restart pmem;
  let s' = Pstack.Bounded.attach pmem ~base:(off 0) ~capacity:8192 in
  Alcotest.(check int) "frame 3 lost after crash" 1 (Pstack.Bounded.depth s')

(* Fig. 6a: skipping the flush of the new frame while still moving the
   marker can leave the marker persisted but the frame body lost.  The
   args must span past the flipped marker byte's cache line: the
   single-byte marker flush persists its whole line, and a small frame
   landing entirely inside that line would be persisted along with it. *)
let test_unsafe_push_violates_invariant_1 () =
  let lost = Bytes.make 100 'l' in
  let pmem = Pmem.create ~policy:Pmem.Lose_all ~size:65536 () in
  let s = Pstack.Bounded.create pmem ~base:(off 0) ~capacity:8192 in
  Pstack.Bounded.push s ~func_id:2 ~args:Bytes.empty;
  Pstack.Bounded.unsafe_push ~flush_frame:false s ~func_id:3 ~args:lost;
  Pmem.crash_and_restart pmem;
  Alcotest.(check bool) "frame 3 corrupted or stack unreadable" true
    (match Pstack.Bounded.attach pmem ~base:(off 0) ~capacity:8192 with
    | s' ->
        List.for_all
          (fun (_, f) -> f.Frame.func_id <> 3 || f.Frame.args <> lost)
          (Pstack.Bounded.frames s')
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Dump                                                                *)

let test_dump_views () =
  let pmem = Pmem.create ~policy:Pmem.Lose_all ~size:65536 () in
  let s = Pstack.Bounded.create pmem ~base:(off 0) ~capacity:8192 in
  Pstack.Bounded.push s ~func_id:2 ~args:(Bytes.make 3 'a');
  let lines =
    Pstack.Dump.scan_region pmem ~view:Pstack.Dump.Volatile ~base:(off 0)
  in
  let frames =
    List.filter_map
      (function Pstack.Dump.Frame { func_id; _ } -> Some func_id | _ -> None)
      lines
  in
  Alcotest.(check (list int)) "volatile sees dummy+frame" [ 0; 2 ] frames;
  Alcotest.(check bool) "invalid tail rendered" true
    (List.exists
       (function Pstack.Dump.Invalid_tail _ -> true | _ -> false)
       lines);
  Alcotest.(check bool) "render non-empty" true
    (String.length (Pstack.Dump.render lines) > 0)

(* The dump and the recovery decoder [Frame.read] read one format.  On
   every stack kind, in both views, and after a one-bit flip in a frame's
   arguments, in its checksum word or in a pointer code, a dumped frame is
   flagged [crc_ok = false] exactly when [Frame.read] reports a checksum
   mismatch at its offset, and a frame [Frame.read] accepts dumps with the
   same function id, marker and pointer target. *)
type dumped = {
  kind : string;
  build : Pmem.t -> Heap.t -> unit;
  scan : Pmem.t -> Pstack.Dump.view -> Pstack.Dump.line list;
}

let dumped_stacks =
  let pushes push =
    List.iteri
      (fun i len -> push ~func_id:(i + 2) ~args:(Bytes.make len 'd'))
      [ 0; 40; 100; 8; 60; 16 ]
  in
  let base = off ((1 lsl 19) + 1024) in
  [
    {
      kind = "bounded";
      build =
        (fun pmem _ ->
          pushes (Pstack.Bounded.push (Pstack.Bounded.create pmem ~base ~capacity:8192)));
      scan = (fun pmem view -> Pstack.Dump.scan_region pmem ~view ~base);
    };
    {
      kind = "resizable";
      build =
        (fun pmem heap ->
          pushes
            (Pstack.Resizable.push
               (Pstack.Resizable.create pmem ~heap ~anchor:(off 0) ())));
      scan =
        (fun pmem view ->
          Pstack.Dump.scan_region pmem ~view
            ~base:(off (Pmem.read_int pmem (off 0))));
    };
    {
      kind = "linked";
      build =
        (fun pmem heap ->
          pushes
            (Pstack.Linked.push
               (Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:128
                  ())));
      scan =
        (fun pmem view -> Pstack.Dump.scan_linked pmem ~view ~anchor:(off 0));
    };
  ]

type surgery = Intact | Args_bit | Crc_bit | Pointer_code_bit

(* The byte a surgery flips: in the second frame with arguments, or in the
   first pointer frame ([None] when the stack has none). *)
let surgery_target lines = function
  | Intact -> None
  | (Args_bit | Crc_bit) as s -> (
      match
        List.filter_map
          (function
            | Pstack.Dump.Frame { off; args_len; _ } when args_len > 0 ->
                Some off
            | _ -> None)
          lines
      with
      | _ :: at :: _ ->
          Some
            (Offset.add at
               (if s = Args_bit then Frame.ordinary_header_size + 3
                else Frame.crc_rel + 2))
      | _ -> Alcotest.fail "fewer than two frames with arguments")
  | Pointer_code_bit ->
      List.find_map
        (function
          | Pstack.Dump.Pointer_frame { off; _ } ->
              Some (Offset.add off Frame.pointer_code_rel)
          | _ -> None)
        lines

let check_agreement label lines pmem =
  let agree at ~crc_ok ~what accepted =
    match Frame.read pmem ~at with
    | Ok scanned ->
        Alcotest.(check bool) (label ^ ": accepted frame dumps crc ok") true crc_ok;
        accepted scanned
    | Error { Frame.crc_mismatch = true; _ } ->
        Alcotest.(check bool) (label ^ ": rejected frame dumps crc BAD") false crc_ok
    | Error c ->
        Alcotest.failf "%s: dumped %s that Frame.read finds damaged: %a" label
          what Frame.pp_corruption c
  in
  List.iter
    (function
      | Pstack.Dump.Frame { off; func_id; last; crc_ok; _ } ->
          agree off ~crc_ok ~what:"an ordinary frame" (function
            | Frame.Ordinary { frame; last = last'; _ } ->
                Alcotest.(check int) (label ^ ": func_id") func_id
                  frame.Frame.func_id;
                Alcotest.(check bool) (label ^ ": last") last last'
            | Frame.Pointer _ -> Alcotest.failf "%s: kinds differ" label)
      | Pstack.Dump.Pointer_frame { off; next; crc_ok } ->
          agree off ~crc_ok ~what:"a pointer frame" (function
            | Frame.Pointer { next = next'; _ } ->
                Alcotest.(check int) (label ^ ": pointer target")
                  (Offset.to_int next) (Offset.to_int next')
            | Frame.Ordinary _ -> Alcotest.failf "%s: kinds differ" label)
      | Pstack.Dump.Invalid_tail _ -> ())
    lines

let test_dump_agrees_with_read d surgery () =
  let pmem = Pmem.create ~size:(1 lsl 20) () in
  let heap = Heap.format pmem ~base:(off 64) ~len:(1 lsl 19) in
  d.build pmem heap;
  (match surgery_target (d.scan pmem Pstack.Dump.Volatile) surgery with
  | None -> ()
  | Some at ->
      Pmem.write_byte pmem at (Pmem.read_byte pmem at lxor 0x10);
      Pmem.flush_byte pmem at);
  let bad lines =
    List.length
      (List.filter
         (function
           | Pstack.Dump.Frame { crc_ok = false; _ }
           | Pstack.Dump.Pointer_frame { crc_ok = false; _ } ->
               true
           | _ -> false)
         lines)
  in
  (* the tracked reads of [Frame.read] see the volatile view; after a
     power cycle they see exactly the persisted bytes *)
  let lines = d.scan pmem Pstack.Dump.Volatile in
  check_agreement "volatile" lines pmem;
  Alcotest.(check int) "damaged frames" (if surgery = Intact then 0 else 1)
    (bad lines);
  Pmem.crash_and_restart pmem;
  let lines = d.scan pmem Pstack.Dump.Persistent in
  check_agreement "persistent" lines pmem;
  Alcotest.(check int) "damaged frames after restart"
    (if surgery = Intact then 0 else 1)
    (bad lines)

let dump_agreement_cases =
  List.concat_map
    (fun d ->
      List.filter_map
        (fun (name, surgery) ->
          if surgery = Pointer_code_bit && d.kind <> "linked" then None
          else
            Some
              (Alcotest.test_case
                 (Printf.sprintf "agrees with Frame.read (%s, %s)" d.kind name)
                 `Quick
                 (test_dump_agrees_with_read d surgery)))
        [
          ("intact", Intact);
          ("argument bit", Args_bit);
          ("checksum bit", Crc_bit);
          ("pointer code bit", Pointer_code_bit);
        ])
    dumped_stacks

(* ------------------------------------------------------------------ *)
(* Device-traffic pins                                                 *)

(* One fixed script per implementation, run with no crash and then with a
   crash at every persistence point of its first phase.  The stack is
   created before the crash plan is armed; phase one pushes and pops
   frames of mixed argument lengths: they cross the resizable stack's
   grow and shrink and the linked stack's block boundaries.  Phase two power-cycles, re-attaches,
   tears the top frame, re-attaches again (a truncation), pushes and pops
   once more.  Every persistence access the device announces, every read
   range, every repair and the frames after each attach feed one digest,
   so the digest pins the device calls of create, push, pop and attach,
   in order. *)

type traffic =
  | Traffic : {
      stack : (module Pstack.Stack_intf.S with type t = 's);
      create : Pmem.t -> Heap.t -> 's;
      attach : report:(Pstack.Repair.event -> unit) -> Pmem.t -> Heap.t -> 's;
    }
      -> traffic

let heap_base = off 64

let bounded_traffic =
  let base = off (1 lsl 19 + 1024) in
  Traffic
    {
      stack = (module Pstack.Bounded);
      create = (fun pmem _ -> Pstack.Bounded.create pmem ~base ~capacity:8192);
      attach =
        (fun ~report pmem _ ->
          Pstack.Bounded.attach ~report pmem ~base ~capacity:8192);
    }

let resizable_traffic =
  Traffic
    {
      stack = (module Pstack.Resizable);
      create =
        (fun pmem heap -> Pstack.Resizable.create pmem ~heap ~anchor:(off 0) ());
      attach =
        (fun ~report pmem heap ->
          Pstack.Resizable.attach ~report pmem ~heap ~anchor:(off 0));
    }

let linked_traffic =
  Traffic
    {
      stack = (module Pstack.Linked);
      create =
        (fun pmem heap ->
          Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:128 ());
      attach =
        (fun ~report pmem heap ->
          Pstack.Linked.attach ~report pmem ~heap ~block_size:128
            ~anchor:(off 0) ());
    }

let traffic_digest (Traffic t) =
  let module S = (val t.stack) in
  let log = Buffer.create 65536 in
  let lengths = [ 0; 40; 100; 8; 200; 16; 0; 64; 30 ] in
  let push s i len = S.push s ~func_id:(i + 2) ~args:(Bytes.make len 'q') in
  let log_frames s =
    List.iter
      (fun (o, f) ->
        Printf.bprintf log "[%d:%d/%d]" (Offset.to_int o) f.Frame.func_id
          (Bytes.length f.Frame.args))
      (S.frames s);
    Buffer.add_char log '\n'
  in
  let report = function
    | Pstack.Repair.Truncated_tail { at; frames_kept; corruption; _ } ->
        Printf.bprintf log "truncated %d kept %d crc %b " (Offset.to_int at)
          frames_kept corruption.Frame.crc_mismatch
  in
  let run_once plan =
    let pmem = Pmem.create ~size:(1 lsl 20) () in
    let heap = Heap.format pmem ~base:heap_base ~len:(1 lsl 19) in
    let ctl = Pmem.crash_ctl pmem in
    let take_reads () =
      List.iter
        (fun (first, last) -> Printf.bprintf log "r%d-%d " first last)
        (List.rev (Crash.take_reads ctl))
    in
    Crash.set_scheduler ctl
      (Some
         (fun { Crash.kind; first_line; last_line; persists } ->
           take_reads ();
           Printf.bprintf log "%c%d-%d%s "
             (match kind with Crash.Write -> 'w' | Flush -> 'f' | Cas -> 'c')
             first_line last_line
             (if persists then "p" else "")));
    let s = t.create pmem heap in
    Crash.arm ctl plan;
    let fired =
      try
        List.iteri (push s) lengths;
        for _ = 1 to 6 do
          S.pop s
        done;
        push s 20 120;
        push s 21 0;
        false
      with Crash.Crash_now -> true
    in
    Pmem.crash_and_restart pmem;
    let heap = Heap.recover pmem ~base:heap_base in
    let s = t.attach ~report pmem heap in
    log_frames s;
    if S.depth s > 0 then begin
      (* tear the top frame: its checksum no longer matches *)
      let at = Offset.add (S.top_offset s) Frame.func_id_rel in
      Pmem.write_byte pmem at (Pmem.read_byte pmem at lxor 0x40);
      Pmem.flush_byte pmem at
    end;
    let s = t.attach ~report pmem heap in
    log_frames s;
    push s 30 90;
    push s 31 10;
    S.pop s;
    take_reads ();
    Crash.set_scheduler ctl None;
    log_frames s;
    fired
  in
  ignore (run_once Crash.Never);
  let rec sweep n = if run_once (Crash.At_op n) then sweep (n + 1) else n - 1 in
  let points = sweep 1 in
  (points, Digest.to_hex (Digest.string (Buffer.contents log)))

let test_traffic_pinned (traffic, points, digest) () =
  let points', digest' = traffic_digest traffic in
  Alcotest.(check int) "persistence points" points points';
  Alcotest.(check string) "traffic digest" digest digest'

let per_impl name f =
  List.map
    (fun (Harness h as harness) ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name h.name)
        `Quick (f harness))
    harnesses

let () =
  Alcotest.run "pstack"
    [
      ( "frame codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "detects bit rot" `Quick test_codec_detects_bitrot;
          Alcotest.test_case "answer slot" `Quick test_answer_slot;
        ] );
      ("interface", per_impl "push/pop" test_push_pop);
      ("attach", per_impl "attach matches" test_attach_matches);
      ("answers", per_impl "answer via interface" test_answer_via_interface);
      ("depth", per_impl "deep stack" test_deep_stack);
      ("crash sweep", per_impl "crash-point sweep" test_crash_point_sweep);
      ( "differential",
        [
          Alcotest.test_case "boundary recovery identical" `Quick
            test_differential_boundary_recovery;
          Alcotest.test_case "seeded crash sweep legal" `Quick
            test_differential_crash_sweep;
        ] );
      ("bounded", [ Alcotest.test_case "overflow" `Quick test_bounded_overflow ]);
      ( "resizable",
        [
          Alcotest.test_case "grow and shrink" `Quick
            test_resizable_grows_and_shrinks;
        ] );
      ( "linked",
        [
          Alcotest.test_case "spans blocks" `Quick test_linked_spans_blocks;
          Alcotest.test_case "attach preserves block size" `Quick
            test_linked_attach_preserves_block_size;
          Alcotest.test_case "attach default falls back" `Quick
            test_linked_attach_default_falls_back;
          Alcotest.test_case "big frame" `Quick
            test_linked_big_frame_gets_own_block;
        ] );
      ( "flushing invariants (Fig. 6)",
        [
          Alcotest.test_case "invariant 1 violation" `Quick
            test_unsafe_push_violates_invariant_1;
          Alcotest.test_case "invariant 2 violation" `Quick
            test_unsafe_push_violates_invariant_2;
        ] );
      ( "dump",
        Alcotest.test_case "views" `Quick test_dump_views
        :: dump_agreement_cases );
      ( "device traffic",
        List.map
          (fun (name, pin) ->
            Alcotest.test_case name `Slow (test_traffic_pinned pin))
          [
            ("bounded", (bounded_traffic, 86, "0354cc3dade2914f8ef70bc40b242b97"));
            ("resizable", (resizable_traffic, 142, "36612a1b8368e7aa0d5b79a091d9772c"));
            ("linked", (linked_traffic, 152, "455f923a90bb0ef2b285e07c7203c7ee"));
          ] );
    ]
