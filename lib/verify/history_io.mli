(** Textual CAS-history files: the ingestion format shared by the
    standalone verifier ([bin/verify_history]) and the crash fuzzer, which
    serialises the history of every failing CAS run as a re-checkable
    artifact.

    One entry per line; ['#'] comments and blank lines are ignored:

    {v
    init 5
    cas 5 6 ok
    cas 9 1 fail
    final 6
    v}

    Every parse failure carries the file name and the 1-based line number
    of the offending entry. *)

exception Malformed of { file : string; line : int; msg : string }
(** Raised on any malformed entry.  [line] is [0] only for whole-file
    errors that no single line causes (e.g. an unreadable file). *)

val error_message : file:string -> line:int -> msg:string -> string
(** ["FILE:LINE: MSG"] — the rendering the CLI prints; exposed so tests can
    assert on it. *)

val of_lines : file:string -> string list -> History.t
(** Assemble a history from the lines of a file.  The last [init]/[final]
    entries win.  @raise Malformed if any line is malformed or a required
    entry is missing (the missing-entry error points at the line after the
    last one). *)

val read_channel : file:string -> in_channel -> History.t
(** Read a whole channel; [file] is used for error reporting only. *)

val pp : Format.formatter -> History.t -> unit
(** Print a history in the same format {!of_lines} accepts (round-trips). *)
