(** Integrity checksums for persistent metadata.

    Real NVRAM tears in-flight cache lines and rots bits at rest; the
    recovery paths therefore {e verify} metadata instead of trusting it.
    This module is the one checksum everybody shares: FNV-1a over bytes,
    folded to the width each header has room for.  FNV is not
    cryptographic — the adversary here is a media fault, not an attacker —
    but it detects every single-bit flip and has no alignment or table
    requirements, so the hot paths stay allocation-free.

    {2 Sabotage switch}

    {!enabled} gates every {e verification} (never checksum {e writing}).
    The fuzzer's sabotage self-check flips it off to prove the
    no-silent-corruption oracle has teeth: with verification disabled an
    injected fault must surface as a wrong answer, and the campaign must
    flag it.  Production code never touches this. *)

val fnv64 : bytes -> pos:int -> len:int -> int64
(** FNV-1a over [len] bytes of [bytes] starting at [pos]. *)

val fnv64_init : int64
(** The FNV-1a offset basis, for chained hashing with {!fnv64_sub}. *)

val fnv64_sub : int64 -> bytes -> pos:int -> len:int -> int64
(** [fnv64_sub acc b ~pos ~len] folds more bytes into a running hash.
    [fnv64 b ~pos ~len = fnv64_sub fnv64_init b ~pos ~len]. *)

val fnv64_into : bytes -> at:int -> bytes -> pos:int -> len:int -> unit
(** [fnv64_into acc ~at b ~pos ~len] is {!fnv64_sub} with the running hash
    kept in place, as the little-endian int64 at [at] in [acc]: a chain of
    calls passes no [int64] across a function boundary, so it allocates
    nothing. *)

val fnv64_byte : int64 -> int -> int64
(** [fnv64_byte acc b] folds one byte into a running hash. *)

val fnv64_int64 : int64 -> int64 -> int64
(** [fnv64_int64 acc v] folds the 8 little-endian bytes of [v] into a
    running hash without materialising them. *)

val code15_of_int : int -> int
(** A 15-bit integrity code of a native int — its FNV-1a hash (over the 8
    little-endian bytes of [Int64.of_int v]) xor-folded to the width a heap
    block header has room for.  Computed without allocating. *)

val code_of_int64 : int64 -> int
(** A one-byte nonzero integrity code of a 64-bit value: the FNV-1a hash
    folded to 8 bits, mapped away from [0] so that "code present" and
    "code matches" can share a byte with an all-zero "absent" state (the
    stack frame answer slot uses exactly that encoding). *)

val enabled : unit -> bool
(** Whether checksum {e verification} is on (default: yes).  Checksums are
    always computed and written; only the checks consult this. *)

val unsafe_set_enabled : bool -> unit
(** Sabotage hook for the fuzzer's self-check.  Disabling verification
    makes injected media faults invisible to recovery — which is the
    point: the campaign oracle must then catch the resulting wrong
    answers.  Never call this outside tests. *)
