module Exec = Runtime.Exec
module Value = Runtime.Value

type handle = unit -> Rstack.t

let pop_answer = Value.int_option_of_answer

let register_push registry ~id ~attempt_id handle =
  Nested.register registry ~id ~attempt_id ~name:"rstack.push"
    ~scope:(fun ctx args ->
      Value.of_offset
        (Chain.alloc_node
           (Rstack.chain (handle ()))
           ~heap:ctx.Exec.heap [ Value.to_int args ]))
    ~attempt:(fun _ args ->
      Rstack.link (handle ()) ~node:(Value.to_offset args);
      0L)
    ~recover:(fun _ args ->
      Rstack.link_recover (handle ()) ~node:(Value.to_offset args);
      0L)

let register_pop registry ~id ~attempt_id handle =
  let pop take ctx args =
    Value.answer_of_int_option
      (take (handle ()) ~pid:ctx.Exec.worker_id ~seq:(Value.to_int args))
  in
  Nested.register registry ~id ~attempt_id ~name:"rstack.pop"
    ~scope:(fun ctx _ ->
      Value.of_int
        (Chain.bump (Rstack.chain (handle ())) ~pid:ctx.Exec.worker_id))
    ~attempt:(pop Rstack.take) ~recover:(pop Rstack.take_recover)
