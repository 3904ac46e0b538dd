(** Offline integrity scrub of a system image.

    Real NVRAM deployments run periodic {e scrubbing} so bit rot is found
    while it is still correctable rather than at the next crash.  This
    pass is that, for the simulated device: it walks every checksummed
    structure of a system image — superblock, each worker stack's frames,
    the heap's superblock, arena headers and block tiling —
    and reports what fails to verify.

    In repair mode it additionally {e fixes} what the recovery paths know
    how to fix: rotten heap arena headers are rewritten (quarantining
    unwalkable arenas), and stack attach truncates torn tails.  Damage beyond that
    (rotten superblock, corrupt dummy frame) is reported as fatal.

    The pass reads the image through the normal device API; run it on a
    quiescent system (or a copy of the image), not concurrently with
    workers. *)

type finding = {
  where : string;  (** "superblock", "heap", "worker [i] stack" *)
  detail : string;
  repaired : bool;  (** true only in repair mode, for degradable damage *)
}

type t = { findings : finding list; fatal : bool }

val run : ?repair:bool -> Nvram.Pmem.t -> t
(** [run pmem] scrubs the image (default: report only, no writes).
    [~repair:true] also rebuilds what is rebuildable, like a recovery
    would.  Every finding ticks the [faults_detected] counter; repairs
    tick through the repair paths themselves. *)

val is_clean : t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
