(** The nvkv wire protocol: length-prefixed, CRC-framed binary frames.

    {v
    offset  size  field
    0       2     magic "NK"
    2       1     protocol version (1)
    3       1     frame kind (1 = request, 2 = response)
    4       4     payload length, little-endian
    8       n     payload
    8+n     8     FNV-64 over bytes [0, 8+n), little-endian
    v}

    A request payload is [client (8) · seq (8) · opcode (1) · operands
    (8 each)]; a response payload is [client (8) · seq (8) · status (1) ·
    value (8)].  All integers are little-endian OCaml [int]s.

    [(client, seq)] is the exactly-once identity: [client] is a dedup slot
    the sender owns, [seq] its per-client request counter — fresh for a new
    request, repeated verbatim on a retry (see [Recoverable.Dedup]).

    The decoder mirrors the [Pstack.Frame] discipline: a damaged frame is
    a {e value} ({!Broken}), never an exception, and a prefix of a valid
    frame is {!Incomplete} so a streaming reader can simply wait for more
    bytes.  The CRC is always verified — the wire's adversary is a torn or
    corrupted TCP stream, not simulated media, so [Integrity.enabled] does
    not gate it. *)

type op =
  | Ping  (** liveness probe; answered from the event loop *)
  | Put of int * int  (** key, value *)
  | Get of int
  | Del of int
  | Enqueue of int
  | Dequeue
  | Last_seq
      (** the server's recorded dedup sequence for this client; a
          reconnecting client resumes numbering after the answer *)

type request = { client : int; seq : int; op : op }

type result =
  | Value of int  (** found value / dequeued value / last sequence *)
  | Nothing  (** key absent / queue empty *)
  | Done  (** effectful op completed (put, del, enqueue, ping) *)
  | Refused of int  (** error code below; the operation did not execute *)

type response = { client : int; seq : int; result : result }

(** {2 Refusal codes} *)

val err_stale : int
(** The dedup slot records a newer sequence — retry protocol violated. *)

val err_unknown : int
(** Client index outside the server's dedup table. *)

val err_shutdown : int
(** The server is draining for a graceful stop; retry after reconnect. *)

val err_bad_request : int

(** {2 Codec} *)

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Oversized of int  (** declared payload length out of [0, max_payload] *)
  | Bad_crc
  | Malformed of string  (** frame verified but payload does not parse *)

type 'a decoded =
  | Complete of 'a * int  (** the value and the bytes consumed *)
  | Incomplete  (** a valid proper prefix; read more bytes *)
  | Broken of error
      (** not a prefix of any valid frame; the connection has lost framing
          and must be dropped (no resync is attempted) *)

val max_payload : int
val overhead : int
(** Frame bytes around the payload (header + trailing CRC). *)

val encode_request : request -> bytes
val encode_response : response -> bytes

val decode_request : ?pos:int -> bytes -> len:int -> request decoded
(** Decode one request frame from the [len] bytes starting at [pos]
    (default [0]; [pos + len] must lie inside the buffer); the bytes
    consumed count from [pos].  Never raises:
    every damaged input is {!Broken}, every short valid prefix
    {!Incomplete}.  Bytes already present are judged immediately — a wrong
    magic byte is {!Broken} even in a one-byte buffer. *)

val decode_response : bytes -> len:int -> response decoded

(** {2 Printers and reproducer text} *)

val pp_op : Format.formatter -> op -> unit
val pp_result : Format.formatter -> result -> unit
val pp_error : Format.formatter -> error -> unit

val op_to_string : op -> string
(** Space-separated lowercase words ([put 3 40], [dequeue], ...) — the
    form the crash fuzzer's server reproducers use. *)

val op_of_string : string -> op option
(** Inverse of {!op_to_string}; [None] on anything else. *)
