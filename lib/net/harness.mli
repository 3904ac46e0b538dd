(** Process-level test harness for [bin/nvkv_server]: spawn real server
    processes over temp images, SIGKILL them at deterministic persistence
    points, restart, and check a request schedule against an exact
    sequential model.

    This is the paper's own methodology (Section 5.2, "UNIX utility kill")
    lifted to the network layer, shared by [test/test_server.ml] and the
    crash fuzzer's [server] scenario class.  A {!spec} is fully seeded and
    self-describing — the fuzzer shrinks it and prints it as a replayable
    reproducer ({!spec_to_string}). *)

(** {1 Server processes} *)

type server = {
  pid : int;
  addr : string;  (** as printed on the READY line, e.g. [unix:/tmp/x.sock] *)
  sockaddr : Unix.sockaddr;
  fresh : bool;  (** created a new image rather than attached *)
  output : in_channel;
      (** the server's stdout after the READY line: a graceful stop
          prints its [STATS] line here *)
}

type start_failure =
  | Killed_before_ready
      (** SIGKILL before READY: an armed [`Startup] kill landed inside
          create or recovery *)
  | Died of string
      (** any other death before READY, e.g. exit 3 (damaged image) or
          exit 4 (recovery over budget), or a malformed READY line *)

val server_exe : unit -> string
(** Locate [nvkv_server.exe] next to (or in [../bin] of) the running
    executable; fails if absent. *)

val start_server :
  ?size:int ->
  ?workers:int ->
  ?nclients:int ->
  ?kill_at:int ->
  ?kill_from:[ `Ready | `Startup ] ->
  ?extra_args:string list ->
  image:string ->
  sock:string ->
  unit ->
  (server, start_failure) result
(** Spawn and wait for READY.  Every start passes
    [--max-recovery-ms 2000], so the server refuses to serve (exit 4,
    reported as a [Died] message naming the budget) when its startup
    recovery takes longer.  [Error Killed_before_ready] is the expected
    outcome when a [`Startup] kill lands inside create or recovery; the
    caller restarts without the kill armed.  [extra_args] come after the
    harness's own flags and must not repeat them. *)

val kill_server : int -> unit
(** SIGKILL and reap; fails if the process died of anything else first. *)

val stop_server : int -> Unix.process_status
(** SIGTERM (graceful drain) and reap. *)

(** {1 Seeded crash-kill-recover schedules} *)

type spec = {
  seed : int;
  case : int;  (** campaign case number; carried for reproducers *)
  kill_at : int;  (** SIGKILL at this persistence op; [0] = never *)
  kill_from : [ `Ready | `Startup ];
  reqs : (int * Wire.op) list;  (** (client index, op), driven in order *)
}

val spec_to_string : spec -> string
(** The replayable reproducer text, first line [server-repro v1]. *)

val spec_of_string : string -> (spec, string) result
(** Parses {!spec_to_string}'s text.  [Error] names the first malformed
    line: a non-numeric seed, case, kill point or request client, a
    negative client, an unknown kill origin or an unknown op. *)

val is_spec : string -> bool
(** Whether the text looks like a server reproducer (header sniff). *)

type stats = { restarts : int }
(** [restarts] counts server restarts the harness performed — at least 1
    when an armed kill actually fired, so tests can reject vacuous
    schedules whose kill point was never reached. *)

val run_spec : ?verbose:bool -> spec -> (stats, string) result
(** Execute the schedule against a fresh image with one worker (so the
    sequential model is exact): drive each request with same-identity
    retry, restarting the server (kill disarmed) whenever it dies.  A
    restart that fails before READY is a violation, and so is one that
    prints [fresh=true] after some earlier incarnation printed READY (the
    root was published before READY, so the image must be attached).
    Then:

    - {b duplicate probe}: re-send every client's last [(seq, op)] — the
      answer must equal the recorded one (exactly-once across recovery);
    - {b map oracle}: [Get] every touched key and compare with the model;
    - {b queue oracle}: drain and compare content in exact FIFO order.

    [Error] describes the first violation (or an unexpected server death);
    harness plumbing failures raise. *)
