(* Property-based tests (QCheck, registered as alcotest cases).

   Each property exercises an invariant of a core data structure:

   - the persistent stacks agree with a simple list model under arbitrary
     push/pop sequences, and reattaching after a clean shutdown preserves
     the frames;
   - the heap allocator keeps its tiling and free-index invariants after
     every step of arbitrary alloc/free/recover interleavings, never hands
     out a live payload twice, and keeps every live block across recovery;
   - the serializability checker agrees with the brute-force reference on
     arbitrary small histories, and every witness it produces replays;
   - permutations of serializable histories remain serializable (operation
     order in the report must not matter);
   - codec roundtrips. *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap
module Frame = Pstack.Frame
module H = Verify.History

let off = Offset.of_int

(* ------------------------------------------------------------------ *)
(* Stack vs model                                                      *)

type stack_op = Push of int * int | Pop

let stack_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map2 (fun id len -> Push ((id mod 1000) + 2, len mod 60)) nat nat);
        (2, pure Pop);
      ])

let pp_stack_op = function
  | Push (id, len) -> Printf.sprintf "Push(%d,%d)" id len
  | Pop -> "Pop"

type packed_stack =
  | Packed : (module Pstack.Stack_intf.S with type t = 's) * 's -> packed_stack

let make_stack = function
  | `Bounded ->
      let pmem = Pmem.create ~size:(1 lsl 18) () in
      Packed
        ((module Pstack.Bounded), Pstack.Bounded.create pmem ~base:(off 0) ~capacity:(1 lsl 17))
  | `Resizable ->
      let pmem = Pmem.create ~size:(1 lsl 20) () in
      let heap = Heap.format pmem ~base:(off 64) ~len:(1 lsl 19) in
      Packed
        ((module Pstack.Resizable), Pstack.Resizable.create pmem ~heap ~anchor:(off 0) ())
  | `Linked ->
      let pmem = Pmem.create ~size:(1 lsl 20) () in
      let heap = Heap.format pmem ~base:(off 64) ~len:(1 lsl 19) in
      Packed
        ( (module Pstack.Linked),
          Pstack.Linked.create pmem ~heap ~anchor:(off 0) ~block_size:128 () )

let stack_model_property kind ops =
  let (Packed ((module S), s)) = make_stack kind in
  let model = ref [] in
  List.iter
    (fun op ->
      match op with
      | Push (id, len) ->
          let args = Bytes.make len 'q' in
          S.push s ~func_id:id ~args;
          model := (id, len) :: !model
      | Pop -> (
          match !model with
          | [] -> (
              match S.pop s with
              | () -> failwith "pop on empty succeeded"
              | exception Invalid_argument _ -> ())
          | _ :: rest ->
              S.pop s;
              model := rest))
    ops;
  let impl =
    List.rev_map
      (fun (_, f) -> (f.Frame.func_id, Bytes.length f.Frame.args))
      (S.frames s)
  in
  impl = !model && S.depth s = List.length !model

let stack_property kind name =
  QCheck2.Test.make ~count:120 ~name
    ~print:(fun ops -> String.concat ";" (List.map pp_stack_op ops))
    QCheck2.Gen.(list_size (int_bound 40) stack_op_gen)
    (stack_model_property kind)

(* ------------------------------------------------------------------ *)
(* Heap invariants                                                     *)

type heap_op =
  | Alloc of int
  | Free of int  (* Free k = free k-th live block *)
  | Recover  (* re-attach through [Heap.recover]; later ops use that heap *)

let heap_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map (fun n -> Alloc (1 + (n mod 500))) nat);
        (2, map (fun k -> Free k) nat);
        (1, pure Recover);
      ])

let heap_property ops =
  let pmem = Pmem.create ~size:(1 lsl 18) () in
  let heap = ref (Heap.format pmem ~base:(off 64) ~len:(1 lsl 16)) in
  let live = ref [] in
  let check_heap () =
    match Heap.check !heap with
    | Ok () -> ()
    | Error msg -> failwith ("invariant: " ^ msg)
  in
  List.iter
    (fun op ->
      (match op with
      | Alloc n -> (
          match Heap.alloc !heap n with
          | payload ->
              if Heap.payload_size !heap payload < n then
                failwith "payload smaller than requested";
              if List.exists (Offset.equal payload) !live then
                failwith "payload handed out twice while live";
              live := payload :: !live
          | exception Heap.Out_of_heap_memory _ -> ())
      | Free k -> (
          match !live with
          | [] -> ()
          | blocks ->
              let idx = k mod List.length blocks in
              let payload = List.nth blocks idx in
              Heap.free !heap payload;
              live := List.filteri (fun i _ -> i <> idx) blocks)
      | Recover ->
          (* recovery keeps all live blocks allocated and reclaims nothing
             live *)
          heap := Heap.recover pmem ~base:(off 64);
          if Heap.block_count !heap ~allocated:true <> List.length !live then
            failwith "recovery changed the allocated set");
      check_heap ())
    (ops @ [ Recover ]);
  true

let pp_heap_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Free k -> Printf.sprintf "free %d" k
  | Recover -> "recover"

let heap_test =
  QCheck2.Test.make ~count:150 ~name:"heap: invariants under alloc/free"
    ~print:(fun ops -> String.concat ";" (List.map pp_heap_op ops))
    QCheck2.Gen.(list_size (int_bound 60) heap_op_gen)
    heap_property

(* ------------------------------------------------------------------ *)
(* Serializability checker properties                                  *)

let history_gen =
  QCheck2.Gen.(
    let value = int_range 0 3 in
    let op = map3 (fun e d r -> { H.expected = e; desired = d; result = r }) value value bool in
    map3
      (fun init final ops -> { H.init; final; ops })
      value value
      (list_size (int_bound 7) op))

let print_history h = Format.asprintf "%a" H.pp h

let checker_matches_brute =
  QCheck2.Test.make ~count:800 ~name:"serializability: polynomial = brute force"
    ~print:print_history history_gen (fun h ->
      Verify.Serializability.is_serializable h = Verify.Brute.is_serializable h)

let witness_replays =
  QCheck2.Test.make ~count:800 ~name:"serializability: witnesses replay"
    ~print:print_history history_gen (fun h ->
      match Verify.Serializability.check h with
      | Verify.Serializability.Serializable w -> (
          List.length w = List.length h.H.ops
          &&
          match H.replay ~init:h.H.init w with
          | Ok final -> final = h.H.final
          | Error _ -> false)
      | Verify.Serializability.Not_serializable _ -> true)

let permutation_invariant =
  (* serializability is a property of the multiset of operations *)
  QCheck2.Test.make ~count:300
    ~name:"serializability: invariant under permutation"
    ~print:(fun (h, _) -> print_history h)
    QCheck2.Gen.(pair history_gen int)
    (fun (h, seed) ->
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map snd
          (List.sort compare
             (List.map (fun op -> (Random.State.bits rng, op)) h.H.ops))
      in
      Verify.Serializability.is_serializable h
      = Verify.Serializability.is_serializable { h with H.ops = shuffled })

let sequential_always_serializable =
  QCheck2.Test.make ~count:100
    ~name:"serializability: sequential executions accepted"
    QCheck2.Gen.(pair small_nat (int_bound 50))
    (fun (seed, n) ->
      let h =
        Verify.Generator.sequential_history ~seed ~n
          ~range:Verify.Generator.Narrow
      in
      Verify.Serializability.is_serializable h)

(* ------------------------------------------------------------------ *)
(* Device vs model                                                     *)

(* Reference model of the device: a persistent byte array, a volatile byte
   array and a dirty-line set.  Random operation sequences with interleaved
   crashes must leave the real device and the model in identical states. *)

type dev_op =
  | Write of int * int  (* offset seed, length seed *)
  | Flush of int * int
  | DevCrash

let dev_op_gen =
  QCheck2.Gen.(
    frequency
      [
        (5, map2 (fun a b -> Write (a, b)) nat nat);
        (3, map2 (fun a b -> Flush (a, b)) nat nat);
        (1, pure DevCrash);
      ])

let pp_dev_op = function
  | Write (a, b) -> Printf.sprintf "Write(%d,%d)" a b
  | Flush (a, b) -> Printf.sprintf "Flush(%d,%d)" a b
  | DevCrash -> "Crash"

let device_matches_model ops =
  let size = 512 and line = 64 in
  let pmem = Pmem.create ~line_size:line ~policy:Pmem.Lose_all ~size () in
  let m_persist = Bytes.make size '\000' in
  let m_volatile = Bytes.make size '\000' in
  let m_dirty = Array.make (size / line) false in
  let fill = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Write (a, b) ->
          let len = 1 + (b mod 100) in
          let o = a mod (size - len) in
          incr fill;
          let byte = Char.chr (!fill land 0xFF) in
          let data = Bytes.make len byte in
          Pmem.write_bytes pmem ~off:(off o) data;
          Bytes.blit data 0 m_volatile o len;
          for l = o / line to (o + len - 1) / line do
            m_dirty.(l) <- true
          done
      | Flush (a, b) ->
          let len = 1 + (b mod 100) in
          let o = a mod (size - len) in
          Pmem.flush pmem ~off:(off o) ~len;
          for l = o / line to (o + len - 1) / line do
            if m_dirty.(l) then begin
              Bytes.blit m_volatile (l * line) m_persist (l * line) line;
              m_dirty.(l) <- false
            end
          done
      | DevCrash ->
          Pmem.crash_and_restart pmem;
          Bytes.blit m_persist 0 m_volatile 0 size;
          Array.fill m_dirty 0 (Array.length m_dirty) false)
    ops;
  Pmem.peek_volatile pmem ~off:(off 0) ~len:size = m_volatile
  && Pmem.peek_persistent pmem ~off:(off 0) ~len:size = m_persist

let device_model_test =
  QCheck2.Test.make ~count:200 ~name:"pmem: matches reference model"
    ~print:(fun ops -> String.concat ";" (List.map pp_dev_op ops))
    QCheck2.Gen.(list_size (int_bound 60) dev_op_gen)
    device_matches_model

(* ------------------------------------------------------------------ *)
(* Stack crash-point property: under a random operation sequence with a
   random crash point, the reattached stack equals some prefix state of
   the linearized history. *)

let stack_crash_property (ops, crash_at) =
  let pmem = Pmem.create ~policy:Pmem.Lose_all ~size:(1 lsl 18) () in
  let s = Pstack.Bounded.create pmem ~base:(off 0) ~capacity:(1 lsl 17) in
  (* committed model states after each linearized op *)
  let model = ref [] in
  let states = ref [ [] ] in
  Nvram.Crash.arm (Pmem.crash_ctl pmem)
    (Nvram.Crash.At_op (1 + (crash_at mod 200)));
  (try
     List.iter
       (fun op ->
         match op with
         | Push (id, len) ->
             Pstack.Bounded.push s ~func_id:id ~args:(Bytes.make len 'p');
             model := (id, len) :: !model;
             states := !model :: !states
         | Pop -> (
             match !model with
             | [] -> ()
             | _ :: rest ->
                 Pstack.Bounded.pop s;
                 model := rest;
                 states := !model :: !states))
       ops
   with Nvram.Crash.Crash_now -> ());
  Pmem.crash_and_restart pmem;
  let s' = Pstack.Bounded.attach pmem ~base:(off 0) ~capacity:(1 lsl 17) in
  let impl =
    List.rev_map
      (fun (_, f) -> (f.Frame.func_id, Bytes.length f.Frame.args))
      (Pstack.Bounded.frames s')
  in
  (* the persistent state must be one of the linearized states *)
  List.mem impl !states

let stack_crash_test =
  QCheck2.Test.make ~count:300
    ~name:"stack: crash leaves a linearized state"
    QCheck2.Gen.(pair (list_size (int_bound 25) stack_op_gen) nat)
    stack_crash_property

(* ------------------------------------------------------------------ *)
(* Recoverable queue and map vs functional models                      *)

type q_op = Enq of int | Deq

(* Stored values: small ones, plus both ends of the [int] range. *)
let value_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, map (fun v -> v land 0xFFFF) nat);
        (1, pure min_int);
        (1, pure max_int);
      ])

let q_op_gen =
  QCheck2.Gen.(frequency [ (3, map (fun v -> Enq v) value_gen); (2, pure Deq) ])

let queue_model_property ops =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
  let heap = Heap.format pmem ~base:(off 4096) ~len:(1 lsl 19) in
  let q = Recoverable.Rqueue.create pmem ~heap ~base:(off 64) ~nprocs:1 in
  let model = Queue.create () in
  List.for_all
    (fun op ->
      match op with
      | Enq v ->
          Recoverable.Rqueue.enqueue q v;
          Queue.push v model;
          true
      | Deq ->
          Recoverable.Rqueue.dequeue q ~pid:0 = Queue.take_opt model)
    ops
  && Recoverable.Rqueue.to_list q = List.of_seq (Queue.to_seq model)

let queue_model_test =
  QCheck2.Test.make ~count:150 ~name:"rqueue: matches a FIFO model"
    QCheck2.Gen.(list_size (int_bound 40) q_op_gen)
    queue_model_property

type m_op = MPut of int * int | MRemove of int | MFind of int

let m_op_gen =
  QCheck2.Gen.(
    let key = map (fun k -> k land 15) nat in
    frequency
      [
        (3, map2 (fun k v -> MPut (k, v)) key value_gen);
        (2, map (fun k -> MRemove k) key);
        (2, map (fun k -> MFind k) key);
      ])

let map_model_property ops =
  let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 20) () in
  let heap = Heap.format pmem ~base:(off 4096) ~len:(1 lsl 19) in
  let m = Recoverable.Rmap.create pmem ~heap ~base:(off 64) ~buckets:4 ~nprocs:1 in
  let model = Hashtbl.create 16 in
  List.for_all
    (fun op ->
      match op with
      | MPut (k, v) ->
          Recoverable.Rmap.put m ~key:k ~value:v;
          Hashtbl.replace model k v;
          true
      | MRemove k ->
          let expected = Hashtbl.mem model k in
          Hashtbl.remove model k;
          Recoverable.Rmap.remove m ~pid:0 ~key:k = expected
      | MFind k ->
          Recoverable.Rmap.find m ~key:k = Hashtbl.find_opt model k)
    ops
  && List.sort compare (Recoverable.Rmap.bindings m)
     = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])

let map_model_test =
  QCheck2.Test.make ~count:150 ~name:"rmap: matches a map model"
    QCheck2.Gen.(list_size (int_bound 50) m_op_gen)
    map_model_property

(* ------------------------------------------------------------------ *)
(* Codec roundtrips                                                    *)

let value_option_answer_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"value: option answers roundtrip"
    QCheck2.Gen.(
      frequency
        [
          (1, pure None);
          (1, pure (Some min_int));
          (1, pure (Some max_int));
          (5, map Option.some int);
        ])
    (fun v ->
      Runtime.Value.(int_option_of_answer (answer_of_int_option v)) = v)

let value_ints_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"value: ints roundtrip"
    QCheck2.Gen.(list_size (int_bound 10) int)
    (fun ints -> Runtime.Value.to_ints (Runtime.Value.of_ints ints) = ints)

let frame_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"frame: encode/decode roundtrip"
    QCheck2.Gen.(pair (int_range 2 1_000_000) (string_size (int_bound 80)))
    (fun (func_id, args) ->
      let pmem = Pmem.create ~size:4096 () in
      let image =
        Frame.encode_ordinary
          { Frame.func_id; args = Bytes.of_string args }
          ~marker:Frame.marker_frame_end
      in
      Pmem.write_bytes pmem ~off:(off 0) image;
      match Frame.read pmem ~at:(off 0) with
      | Ok (Frame.Ordinary { frame; size; last }) ->
          frame.Frame.func_id = func_id
          && Bytes.to_string frame.Frame.args = args
          && size = Bytes.length image
          && not last
      | Ok (Frame.Pointer _) | Error _ -> false)

let rcas_pack_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"rcas: value survives install/read"
    QCheck2.Gen.(int_range Recoverable.Rcas.min_value Recoverable.Rcas.max_value)
    (fun v ->
      let pmem = Pmem.create ~auto_flush:true ~size:(1 lsl 16) () in
      let t =
        Recoverable.Rcas.create pmem ~base:(off 64) ~nprocs:2 ~init:0
          ~variant:Recoverable.Rcas.Correct
      in
      if v = 0 then Recoverable.Rcas.read t = 0
      else
        Recoverable.Rcas.cas t ~pid:0 ~expected:0 ~desired:v
        && Recoverable.Rcas.read t = v)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "stacks",
        to_alcotest
          [
            stack_property `Bounded "bounded stack matches model";
            stack_property `Resizable "resizable stack matches model";
            stack_property `Linked "linked stack matches model";
          ] );
      ("heap", to_alcotest [ heap_test ]);
      ("device", to_alcotest [ device_model_test; stack_crash_test ]);
      ("structures", to_alcotest [ queue_model_test; map_model_test ]);
      ( "verification",
        to_alcotest
          [
            checker_matches_brute;
            witness_replays;
            permutation_invariant;
            sequential_always_serializable;
          ] );
      ( "codecs",
        to_alcotest
          [
            value_ints_roundtrip;
            value_option_answer_roundtrip;
            frame_roundtrip;
            rcas_pack_roundtrip;
          ]
      );
    ]
