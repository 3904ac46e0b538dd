module Exec = Runtime.Exec
module Registry = Runtime.Registry

let register registry ~id ~attempt_id ~name ~scope ~attempt ~recover =
  Registry.register registry ~id:attempt_id ~name:(name ^ "_attempt")
    ~body:attempt
    ~recover:(fun ctx args -> Registry.Complete (recover ctx args));
  let body ctx args =
    Exec.call ctx ~func_id:attempt_id ~args:(scope ctx args)
  in
  let recover ctx args =
    Registry.Complete
      (match Exec.last_answer ctx with
      | Some answer -> answer
      | None -> body ctx args)
  in
  Registry.register registry ~id ~name ~body ~recover
