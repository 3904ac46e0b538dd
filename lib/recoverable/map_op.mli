(** Runtime bindings for the recoverable hash map: put, remove and find as
    nesting-safe recoverable functions (two-level for the mutations,
    through {!Nested}; single-level for the read-only lookup). *)

type handle = unit -> Rmap.t

val register_put :
  Runtime.Exec.t Runtime.Registry.t -> id:int -> attempt_id:int -> handle -> unit
(** Arguments: [(key, value)]; answer [0].  The node is allocated from the
    calling worker's heap arena. *)

val register_remove :
  Runtime.Exec.t Runtime.Registry.t -> id:int -> attempt_id:int -> handle -> unit
(** Argument: the key; answer [1] iff the key was present and this call
    removed it. *)

val register_find :
  Runtime.Exec.t Runtime.Registry.t -> id:int -> handle -> unit
(** Argument: the key; the answer encodes [Some value] / [None (absent)]
    with [Value.answer_of_int_option].  Decode with {!find_answer}. *)

val find_answer : int64 -> int option
