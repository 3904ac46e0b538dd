module Exec = Runtime.Exec
module Registry = Runtime.Registry
module Value = Runtime.Value

type handle = unit -> Rcas.t

let pack_attempt_answer ~success ~desired =
  Int64.logor
    (Int64.shift_left (Int64.of_int desired) 1)
    (if success then 1L else 0L)

let attempt_succeeded answer = Int64.equal (Int64.logand answer 1L) 1L
let attempt_desired answer = Int64.to_int (Int64.shift_right answer 1)

let pid_of ctx = ctx.Exec.worker_id

let register_attempt registry ~id handle =
  let body ctx args =
    let expected, desired, seq = Value.to_int3 args in
    let success =
      Rcas.cas_with_seq (handle ()) ~pid:(pid_of ctx) ~seq ~expected ~desired
    in
    pack_attempt_answer ~success ~desired
  in
  let recover ctx args =
    let expected, desired, seq = Value.to_int3 args in
    let success =
      Rcas.recover_with_seq (handle ()) ~pid:(pid_of ctx) ~seq ~expected
        ~desired
    in
    Registry.Complete (pack_attempt_answer ~success ~desired)
  in
  Registry.register registry ~id ~name:"rcas.attempt" ~body ~recover

(* Run one fresh tagged attempt as a nested recoverable call. *)
let call_attempt ctx ~attempt_id handle ~expected ~desired =
  let seq = Rcas.bump (handle ()) ~pid:(pid_of ctx) in
  Exec.call ctx ~func_id:attempt_id ~args:(Value.of_int3 expected desired seq)

let register_cas registry ~id ~attempt_id handle =
  let body ctx args =
    let expected, desired = Value.to_int2 args in
    let answer = call_attempt ctx ~attempt_id handle ~expected ~desired in
    Value.answer_of_bool (attempt_succeeded answer)
  in
  let recover ctx args =
    Registry.Complete
      (match Exec.last_answer ctx with
      | Some answer ->
          (* The nested attempt completed (directly or through its own
             recovery) and deposited its verdict in our frame. *)
          Value.answer_of_bool (attempt_succeeded answer)
      | None ->
          (* The attempt frame never became part of the stack: the
             operation did not linearize; run it afresh. *)
          body ctx args)
  in
  Registry.register registry ~id ~name:"rcas.cas" ~body ~recover

(* CAS retry loop: reread the register and retry until an attempt wins.
   The loop state is recoverable because each attempt's answer carries the
   value it installed. *)
let retry_loop ctx ~attempt_id handle ~desired_of =
  let rec loop () =
    let current = Rcas.read (handle ()) in
    let answer =
      call_attempt ctx ~attempt_id handle ~expected:current
        ~desired:(desired_of current)
    in
    if attempt_succeeded answer then attempt_desired answer else loop ()
  in
  loop ()

let recover_retry_loop ctx ~attempt_id handle ~desired_of =
  match Exec.last_answer ctx with
  | Some answer when attempt_succeeded answer -> attempt_desired answer
  | Some _ | None -> retry_loop ctx ~attempt_id handle ~desired_of

let register_increment registry ~id ~attempt_id handle =
  let body ctx _args =
    Int64.of_int (retry_loop ctx ~attempt_id handle ~desired_of:(fun v -> v + 1))
  in
  let recover ctx _args =
    Registry.Complete
      (Int64.of_int
         (recover_retry_loop ctx ~attempt_id handle ~desired_of:(fun v -> v + 1)))
  in
  Registry.register registry ~id ~name:"rcas.increment" ~body ~recover

let register_fetch_add registry ~id ~attempt_id handle =
  let body ctx args =
    let delta = Value.to_int args in
    Int64.of_int
      (retry_loop ctx ~attempt_id handle ~desired_of:(fun v -> v + delta))
  in
  let recover ctx args =
    let delta = Value.to_int args in
    Registry.Complete
      (Int64.of_int
         (recover_retry_loop ctx ~attempt_id handle
            ~desired_of:(fun v -> v + delta)))
  in
  Registry.register registry ~id ~name:"rcas.fetch_add" ~body ~recover

(* Attempt variant whose answer carries the displaced (expected) value, for
   operations that must return what they overwrote. *)
let register_fetch_attempt registry ~id handle =
  let pack ~success ~expected = pack_attempt_answer ~success ~desired:expected in
  let body ctx args =
    let expected, desired, seq = Value.to_int3 args in
    let success =
      Rcas.cas_with_seq (handle ()) ~pid:(pid_of ctx) ~seq ~expected ~desired
    in
    pack ~success ~expected
  in
  let recover ctx args =
    let expected, desired, seq = Value.to_int3 args in
    let success =
      Rcas.recover_with_seq (handle ()) ~pid:(pid_of ctx) ~seq ~expected
        ~desired
    in
    Registry.Complete (pack ~success ~expected)
  in
  Registry.register registry ~id ~name:"rcas.fetch_attempt" ~body ~recover

let register_swap registry ~id ~fetch_attempt_id handle =
  let swap_loop ctx desired =
    let rec loop () =
      let current = Rcas.read (handle ()) in
      let answer =
        call_attempt ctx ~attempt_id:fetch_attempt_id handle ~expected:current
          ~desired
      in
      (* the packed payload is the displaced value *)
      if attempt_succeeded answer then attempt_desired answer else loop ()
    in
    loop ()
  in
  let body ctx args = Int64.of_int (swap_loop ctx (Value.to_int args)) in
  let recover ctx args =
    Registry.Complete
      (match Exec.last_answer ctx with
      | Some answer when attempt_succeeded answer ->
          Int64.of_int (attempt_desired answer)
      | Some _ | None -> body ctx args)
  in
  Registry.register registry ~id ~name:"rcas.swap" ~body ~recover

let register_tas registry ~id ~attempt_id get_tas =
  let tas f ctx args =
    Value.answer_of_bool
      (f (get_tas ()) ~pid:(pid_of ctx) ~seq:(Value.to_int args))
  in
  Nested.register registry ~id ~attempt_id ~name:"rtas.test_and_set"
    ~scope:(fun ctx _ ->
      Value.of_int (Rtas.bump (get_tas ()) ~pid:(pid_of ctx)))
    ~attempt:(tas Rtas.test_and_set_with_seq)
    ~recover:(tas Rtas.recover_with_seq)

let register_write registry ~id ~attempt_id handle =
  let body ctx args =
    let v = Value.to_int args in
    ignore (retry_loop ctx ~attempt_id handle ~desired_of:(fun _ -> v));
    0L
  in
  let recover ctx args =
    let v = Value.to_int args in
    ignore (recover_retry_loop ctx ~attempt_id handle ~desired_of:(fun _ -> v));
    Registry.Complete 0L
  in
  Registry.register registry ~id ~name:"rcas.write" ~body ~recover
