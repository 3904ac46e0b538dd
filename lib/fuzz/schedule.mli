(** Crash schedules: one crash plan per era, plus an optional one-shot
    individual-crash (kill) plan armed before the first era — and, for
    systematic model-checking reproducers, an interleaving prefix with its
    preemption bound.

    A schedule is the adversary of a fuzz case: era [i] of the driver runs
    under [plan_for t ~era:i], mixing deterministic [At_op] points with
    seeded probabilistic plans.  Eras beyond the listed ones are [Never],
    so every schedule is finite and every case terminates.

    Schedules serialise to the line-based reproducer format:

    {v
    era 1 at-op 17
    era 2 random 9431 0.010000
    kill at-op 40
    interleave 0 0 1 0 1
    preempt 2
    por on
    reversal 3
    tear at-op 1
    bitflip random 77 0.500000
    fault-seed 4242
    v} *)

type t = {
  eras : Nvram.Crash.plan list;  (** Plan of era 1, 2, ...; then [Never]. *)
  kill : Nvram.Crash.plan option;
      (** Individual-crash plan armed once, at submission time. *)
  interleave : int list;
      (** Worker id chosen at each scheduling decision, across eras, in
          order — the decision prefix the harness follows before its
          policy takes over.  A systematic (lib/mc) execution records its
          pre-crash decisions; a failing fuzz case records the choices its
          seeded policy made.  Serialised as [interleave w0 w1 ...]; several
          [interleave] lines concatenate, so long prefixes stay
          readable. *)
  preempt : int option;
      (** Preemption bound the interleaving was explored under (recorded
          for the reproducer header; replay follows {!interleave} exactly
          and does not need it). *)
  por : bool;
      (** The interleaving was found by the partial-order-reduced explorer
          (metadata, like [preempt]: replay follows {!interleave} exactly
          either way, but the flag records which search produced the
          adversary).  Serialised as [por on]; absent means brute force. *)
  reversals : int list;
      (** Decision indices (into {!interleave}) where the reduced search
          chose a race-reversing alternative rather than the default
          policy — the backtrack points that led to this adversary.
          Serialised as [reversal i j ...]; several lines concatenate. *)
  tear : Nvram.Crash.plan;
      (** Media-fault plan deciding which {e crash events} tear the
          in-flight cache line ([Never] = clean crashes). *)
  bitflip : Nvram.Crash.plan;
      (** Media-fault plan deciding which {e restarts} are preceded by a
          bit flip in persisted metadata. *)
  fault_seed : int;
      (** Seed for the fault plans' derived randomness (which byte tears,
          which bit flips); meaningful only when a fault plan is armed. *)
}

val none : t
(** No crashes at all, no interleaving constraint. *)

val plan_for : t -> era:int -> Nvram.Crash.plan
(** Plan of the given era (1-based); [Never] past the end of the list. *)

val fault_plan : t -> Nvram.Crash.fault_plan
(** The schedule's media-fault plan, as armed on the device. *)

val has_faults : t -> bool
(** Whether either fault plan is armed ([tear] or [bitflip] not [Never]). *)

val generate : ?faults:bool -> rng:Random.State.t -> max_eras:int -> unit -> t
(** Draw a schedule: 1 to [max_eras] era plans, each either an [At_op]
    point or a seeded [Random] probability, and a kill plan with
    probability ~1/3.  With [~faults:true] also draws tear and bitflip
    plans (each [Never] with probability 1/3) and a fault seed.
    Deterministic in [rng].  Generated schedules carry no interleaving:
    the harness's policy picks every worker. *)

val to_lines : t -> string list

val of_lines : string list -> (t, string) result
(** Inverse of {!to_lines}; blank lines are ignored.  [Error msg] on a
    malformed entry, with [msg] prefixed by the 1-based line number
    (["line 3: ..."]). *)

val pp : Format.formatter -> t -> unit
(** One-line digest, e.g. ["[at-op 17; random 9431 0.010000] kill=never"] —
    stable across runs, used in the fuzzer's deterministic trace.  An
    interleave prefix longer than 16 choices shows as its length. *)
