module Exec = Runtime.Exec
module Registry = Runtime.Registry
module Value = Runtime.Value

type handle = unit -> Rmap.t

let find_answer = Value.int_option_of_answer

let register_put registry ~id ~attempt_id handle =
  Nested.register registry ~id ~attempt_id ~name:"rmap.put"
    ~scope:(fun ctx args ->
      let key, value = Value.to_int2 args in
      Value.of_offset
        (Chain.alloc_node
           (Rmap.chain (handle ()))
           ~heap:ctx.Exec.heap [ key; value ]))
    ~attempt:(fun _ args ->
      Rmap.link (handle ()) ~node:(Value.to_offset args);
      0L)
    ~recover:(fun _ args ->
      Rmap.link_recover (handle ()) ~node:(Value.to_offset args);
      0L)

let register_remove registry ~id ~attempt_id handle =
  let remove claim ctx args =
    let key, seq = Value.to_int2 args in
    Value.answer_of_bool (claim (handle ()) ~pid:ctx.Exec.worker_id ~seq ~key)
  in
  Nested.register registry ~id ~attempt_id ~name:"rmap.remove"
    ~scope:(fun ctx args ->
      let seq = Chain.bump (Rmap.chain (handle ())) ~pid:ctx.Exec.worker_id in
      Value.of_int2 (Value.to_int args) seq)
    ~attempt:(remove Rmap.claim_newest) ~recover:(remove Rmap.claim_recover)

let register_find registry ~id handle =
  let body _ctx args =
    Value.answer_of_int_option (Rmap.find (handle ()) ~key:(Value.to_int args))
  in
  Registry.register registry ~id ~name:"rmap.find" ~body
    ~recover:(Registry.completing body)
