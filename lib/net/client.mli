(** Blocking client for the nvkv wire protocol.

    A client owns one dedup slot ([client]) and a monotonic sequence
    counter.  {!call} issues a request under a fresh sequence number and
    makes exactly one attempt.  A retry is a re-send of the {e same}
    [(client, seq)] with {!call_seq} after reconnecting: the retried
    identity is what lets the server's persistent dedup table turn
    at-least-once delivery into exactly-once execution, even when the
    server is killed and restarted between the execution and the ack.

    Not thread-safe: one request in flight per client, by protocol. *)

type t

exception Protocol of string
(** The server broke framing or answered with a mismatched
    [(client, seq)].  The connection is closed before raising. *)

val connect : addr:Unix.sockaddr -> client:int -> t
(** Blocking connect.  The sequence counter starts at [0] (the first
    {!call} uses [1]); a process resuming a previous client identity must
    call {!sync_seq} before issuing requests. *)

val seq : t -> int
(** Last sequence number used. *)

val set_seq : t -> int -> unit

val sync_seq : t -> unit
(** Ask the server ([Last_seq]) for the highest recorded sequence of this
    client and resume numbering after it. *)

val call : t -> Wire.op -> Wire.result
(** Fresh sequence number, single attempt.  Connection failures
    ([Unix.Unix_error], [End_of_file]) are raised to the caller, who must
    assume the request may or may not have executed; re-sending it with
    {!call_seq} under the same sequence number resolves the ambiguity. *)

val call_seq : t -> seq:int -> Wire.op -> Wire.result
(** Single attempt under an explicit sequence number, without touching the
    counter.  This is the retry after a connection failure, and the
    harness's duplicate probe: re-sending an already-acked [(client, seq)]
    must yield the recorded answer, not a re-execution. *)

val close : t -> unit
