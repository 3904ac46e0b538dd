module Exec = Runtime.Exec
module Value = Runtime.Value

type handle = unit -> Rqueue.t

let dequeue_answer = Value.int_option_of_answer

let register_enqueue registry ~id ~attempt_id handle =
  Nested.register registry ~id ~attempt_id ~name:"rqueue.enqueue"
    ~scope:(fun ctx args ->
      Value.of_offset
        (Chain.alloc_node
           (Rqueue.chain (handle ()))
           ~heap:ctx.Exec.heap [ Value.to_int args ]))
    ~attempt:(fun _ args ->
      Rqueue.link (handle ()) ~node:(Value.to_offset args);
      0L)
    ~recover:(fun _ args ->
      Rqueue.link_recover (handle ()) ~node:(Value.to_offset args);
      0L)

let register_dequeue registry ~id ~attempt_id handle =
  let dequeue take ctx args =
    Value.answer_of_int_option
      (take (handle ()) ~pid:ctx.Exec.worker_id ~seq:(Value.to_int args))
  in
  Nested.register registry ~id ~attempt_id ~name:"rqueue.dequeue"
    ~scope:(fun ctx _ ->
      Value.of_int
        (Chain.bump (Rqueue.chain (handle ())) ~pid:ctx.Exec.worker_id))
    ~attempt:(dequeue Rqueue.take) ~recover:(dequeue Rqueue.take_recover)
