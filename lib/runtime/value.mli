(** Marshalling of function arguments and answers.

    Frames carry arguments as raw byte arrays (Section 3.3) and answers as
    8-byte values (Section 4.2); anything larger travels through the NVRAM
    heap by offset.  These helpers encode the handful of shapes the
    examples, tests and the CAS experiment need — integers, integer tuples,
    offsets and strings — as little-endian bytes. *)

val of_int : int -> bytes
val to_int : bytes -> int

val of_int2 : int -> int -> bytes
val to_int2 : bytes -> int * int

val of_int3 : int -> int -> int -> bytes
val to_int3 : bytes -> int * int * int

val of_ints : int list -> bytes
(** Concatenated 8-byte integers; the length is implied by the byte count. *)

val to_ints : bytes -> int list

val of_int64 : int64 -> bytes
val to_int64 : bytes -> int64

val of_offset : Nvram.Offset.t -> bytes
val to_offset : bytes -> Nvram.Offset.t

val of_string : string -> bytes
val to_string : bytes -> string

(** {1 Answer packing}

    An answer slot holds one [int64].  Small structured results are packed
    into it. *)

val answer_of_bool : bool -> int64
val bool_of_answer : int64 -> bool

val answer_of_int : int -> int64
val int_of_answer : int64 -> int

val answer_of_int_option : int option -> int64
(** [None] as [Int64.min_int], [Some v] as [Int64.of_int v].  The two
    never meet: every OCaml [int], [min_int] included, lies in
    -2{^62} .. 2{^62}-1. *)

val int_option_of_answer : int64 -> int option
