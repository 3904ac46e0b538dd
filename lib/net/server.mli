(** Single-threaded select/accept event loop for the nvkv wire protocol.

    The loop multiplexes any number of client connections and hands every
    decoded request to a {!handler}, which completes it by calling the
    supplied continuation — synchronously (requests answered on the loop
    thread: pings, [Last_seq], gets) or later from a worker domain
    (requests executed through [Runtime.Service]).  Completions cross back
    into the loop through a queue and a self-pipe wake-up, so the loop
    never blocks on a worker and a worker never touches a socket.

    One loop tick: drain the wake pipe, take every queued completion,
    encode the responses into each connection's one output buffer and
    write each buffer with one [write] (a partial write keeps the unwritten
    tail for the next tick), then [select].  Reads land straight in the
    connection's input buffer and frames are decoded in place.

    The wake rule: a completion writes the wake pipe only when it finds
    the completion queue empty.  The loop drains the pipe before it takes
    the queue, so a completion queued after the take finds the queue empty
    and wakes the next [select], and one queued before it is taken with
    the rest: no wake is lost, and a burst of completions costs one wake.
    A completion made on the loop's own domain (a handler answering
    synchronously) writes nothing, since the loop takes the queue before
    it next blocks.

    The server is transport and policy agnostic: dedup, opcode dispatch
    and persistence live in the handler ([bin/nvkv_server]).  Framing
    violations ({!Wire.Broken}) drop the connection — the client reconnects
    and retries under the same request identity. *)

type t

type handler = Wire.request -> (Wire.result -> unit) -> unit
(** [handler req k] is called on the loop thread for every decoded
    request; it must arrange for [k result] to be invoked exactly once,
    either before it returns or later from any thread.  [k] is
    thread-safe, cheap (an enqueue, plus a wake-pipe byte when it finds the
    queue empty and runs off the loop's domain), and tolerates the
    connection having died in the meantime (the response is dropped).  The
    response leaves on the loop's next tick.  A handler that answers on
    the loop thread must not raise and must not block: every connection
    waits while it runs. *)

val create : ?backlog:int -> addr:Unix.sockaddr -> handler -> t
(** Bind and listen.  A unix-domain path is unlinked first; an inet
    address with port [0] gets an ephemeral port — read the actual one
    back with {!addr}. *)

val addr : t -> Unix.sockaddr

val serve : t -> unit
(** Run the loop until {!request_stop}: accept, read, decode, dispatch,
    write.  On stop: stop accepting, refuse new requests
    ([Wire.err_shutdown]), drain in-flight requests and buffered
    responses, close every socket, return. *)

val request_stop : t -> unit
(** Callable from any thread and from a signal handler. *)
