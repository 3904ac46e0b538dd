module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Integrity = Nvram.Integrity

exception Out_of_heap_memory of { requested : int; largest_free : int }

(* Persistent layout: a superblock fanning out to per-domain arenas.

   superblock (at [base], [superblock_size] bytes):
     +0  magic "NVHEAP04"
     +8  total region length (superblock + all arenas)
     +16 arena count
     +24 FNV-64 checksum of the three fields above

   arena i (at [base + superblock_size + i*stride]; every arena is [stride]
   bytes except the last, which absorbs the remainder so the arenas tile
   [base + superblock_size, base + len) exactly):
     +0  arena magic "NVHEAP01"
     +8  arena region length (header + blocks)
     +16 reserved (unused)
     +24 FNV-64 checksum of the magic and the length

   block (16-byte header + payload):
     +0  size_tag: bits 0..47 hold the whole block size in bytes (multiple
         of 16) with bit 0 set iff the block is allocated; bits 48..62
         hold a 15-bit integrity code of the low half, so a rotted or torn
         tag is detected instead of walking the heap off a cliff
     +8  reserved (unused)

   Blocks tile [abase + header_size, abase + alen) exactly within each
   arena; every mutation preserves the tiling and commits with a single
   8-byte tag flush.  Formatting commits with the superblock flush, written
   after every arena header: a crash mid-format leaves a region that fails
   the magic test rather than a half-split heap.

   The tiling is the allocator's only persistent record.  Which blocks are
   free is also kept in a volatile per-arena index, built from the tiling
   ([index_arena]) at format and recovery and lazily for an
   [open_existing] heap.  The index only ever holds blocks the tiling says
   are free: [alloc] takes a block out before its commit write and [free]
   puts one in after its commit flush, so an operation cut short leaks at
   most one block until the next [recover] and never hands one out twice.

   Media faults degrade, not crash: a corrupt block tag makes the tiling
   unwalkable, so the arena is quarantined — allocation routes around it,
   frees into it are dropped (the block leaks, bounded by the arena size),
   and aggregate scans skip it. *)

let superblock_size = 64
let header_size = 32
let block_header_size = 16
let min_block = 32
let magic = 0x4E56484541503034L (* "NVHEAP04" *)
let arena_magic = 0x4E56484541503031L (* "NVHEAP01" *)

(* 15-bit integrity code of a 48-bit tag payload, stored in the tag's high
   bits (bit 63 of the device word is the OCaml int tag's home and stays
   clear).  Computed on every tag write; verified on every tag read unless
   {!Integrity.enabled} is off. *)
let tag_payload_mask = (1 lsl 48) - 1

let mk_tag payload = payload lor (Integrity.code15_of_int payload lsl 48)

let tag_ok tag =
  (not (Integrity.enabled ()))
  || (tag lsr 48) land 0x7FFF
     = Integrity.code15_of_int (tag land tag_payload_mask)

let superblock_crc ~len ~arenas =
  let h = Integrity.fnv64_int64 Integrity.fnv64_init magic in
  let h = Integrity.fnv64_int64 h (Int64.of_int len) in
  Integrity.fnv64_int64 h (Int64.of_int arenas)

let arena_crc ~alen =
  let h = Integrity.fnv64_int64 Integrity.fnv64_init arena_magic in
  Integrity.fnv64_int64 h (Int64.of_int alen)

let note_detected () = Obs.Counters.incr Obs.Probe.counters Faults_detected
let note_repaired () = Obs.Counters.incr Obs.Probe.counters Faults_repaired

let note_quarantined () =
  Obs.Counters.incr Obs.Probe.counters Faults_quarantined

type repair =
  | Repaired_arena_header of { arena : int }
  | Quarantined_arena of { arena : int; reason : string }

let pp_repair fmt = function
  | Repaired_arena_header { arena } ->
      Format.fprintf fmt "arena %d: header rewritten from geometry" arena
  | Quarantined_arena { arena; reason } ->
      Format.fprintf fmt "arena %d: QUARANTINED (%s)" arena reason

type arena = {
  abase : Offset.t;
  alen : int;
  mu : Mutex.t;
  (* Volatile index of the arena's free blocks, guarded by [mu]: entry [k]
     for [k < nfree] is the block at [free_off.(k)], [free_size.(k)] bytes
     long.  Unordered (removal swaps the last entry in); plain [int] arrays
     with amortised growth keep [alloc] and [free] free of minor-heap
     allocations — minor collections stop the world across all domains. *)
  mutable free_off : int array;
  mutable free_size : int array;
  mutable nfree : int;
  (* [false] until [index_arena] has run: an [open_existing] heap builds
     its index on the first allocation, so attaching stays write- and
     walk-free. *)
  mutable indexed : bool;
  (* Set (under [mu]) when the arena's block tiling is unwalkable — a tag
     failed its checksum.  Allocation, free and every aggregate scan route
     around a quarantined arena. *)
  mutable quarantined : bool;
}

type t = {
  pmem : Pmem.t;
  base : Offset.t;
  len : int;
  stride : int; (* distance between consecutive arena starts *)
  arenas : arena array;
  preferred : int; (* >= 0: arena this view binds to; -1: route by domain *)
}

let base t = t.base
let length t = t.len
let arena_count t = Array.length t.arenas
let arena_base t i = t.arenas.(i).abase

let with_arena t i =
  if i < 0 then invalid_arg "Heap.with_arena: negative arena index";
  { t with preferred = i mod Array.length t.arenas }

let align16 n = (n + 15) / 16 * 16

(* Arena geometry is a pure function of (len, arenas), so [attach] rebuilds
   exactly the split [format] wrote. *)
let arena_layout ~base ~len ~arenas =
  let avail = len - superblock_size in
  let stride = avail / arenas / 16 * 16 in
  let mk i =
    let abase = Offset.add base (superblock_size + (i * stride)) in
    let alen = if i = arenas - 1 then avail - (stride * (arenas - 1)) else stride in
    {
      abase;
      alen;
      mu = Mutex.create ();
      free_off = [||];
      free_size = [||];
      nfree = 0;
      indexed = false;
      quarantined = false;
    }
  in
  (stride, Array.init arenas mk)

let first_block a = Offset.add a.abase header_size
let arena_end a = Offset.add a.abase a.alen
let payload_of_block block = Offset.add block block_header_size
let block_of_payload payload = Offset.add payload (-block_header_size)

let read_size_tag t block = Pmem.read_int t.pmem block

(* [v] is the 48-bit payload (size | allocated bit); the integrity code is
   stamped here so no caller can write an uncoded tag. *)
let write_size_tag t block v =
  Pmem.write_int t.pmem block (mk_tag v);
  Pmem.flush t.pmem ~off:block ~len:8

let block_size tag = tag land tag_payload_mask land lnot 1
let is_allocated tag = tag land 1 = 1

let check_block a block tag =
  let size = block_size tag in
  let off = Offset.to_int block in
  if not (tag_ok tag) then begin
    note_detected ();
    invalid_arg
      (Printf.sprintf
         "Nvheap.Heap: corrupt block header at %d (checksum mismatch)" off)
  end;
  if
    size < min_block
    || size mod 16 <> 0
    || off + size > Offset.to_int (arena_end a)
  then begin
    note_detected ();
    invalid_arg
      (Printf.sprintf "Nvheap.Heap: corrupt block header at %d (size %d)" off
         size)
  end

(* Index maintenance; caller holds [a.mu] (or is single-threaded). *)
let index_add a block size =
  if a.nfree = Array.length a.free_off then begin
    let grow arr =
      let bigger = Array.make (max 16 (2 * a.nfree)) 0 in
      Array.blit arr 0 bigger 0 a.nfree;
      bigger
    in
    a.free_off <- grow a.free_off;
    a.free_size <- grow a.free_size
  end;
  a.free_off.(a.nfree) <- block;
  a.free_size.(a.nfree) <- size;
  a.nfree <- a.nfree + 1

let index_remove a k =
  let last = a.nfree - 1 in
  a.free_off.(k) <- a.free_off.(last);
  a.free_size.(k) <- a.free_size.(last);
  a.nfree <- last

(* Walk one arena's block tiling in address order. *)
let fold_arena_blocks t a f acc =
  let stop = Offset.to_int (arena_end a) in
  let rec go block acc =
    if Offset.to_int block >= stop then acc
    else begin
      let tag = read_size_tag t block in
      check_block a block tag;
      let acc =
        f acc ~block ~size:(block_size tag) ~allocated:(is_allocated tag)
      in
      go (Offset.add block (block_size tag)) acc
    end
  in
  go (first_block a) acc

(* Build one arena's free index from its block tiling.  Raises
   [Invalid_argument] if the tiling is corrupt; callers then quarantine.
   Caller holds [a.mu] (or is single-threaded). *)
let index_arena t a =
  a.nfree <- 0;
  fold_arena_blocks t a
    (fun () ~block ~size ~allocated ->
      if not allocated then index_add a (Offset.to_int block) size)
    ();
  a.indexed <- true

let format ?(arenas = 1) pmem ~base ~len =
  if arenas < 1 then invalid_arg "Heap.format: arena count must be >= 1";
  if len mod 16 <> 0 then
    invalid_arg "Heap.format: region length must be a multiple of 16";
  let stride, arena_arr =
    if len < superblock_size + (arenas * (header_size + min_block)) then
      invalid_arg "Heap.format: region too small"
    else arena_layout ~base ~len ~arenas
  in
  if stride < header_size + min_block then
    invalid_arg "Heap.format: region too small";
  let t = { pmem; base; len; stride; arenas = arena_arr; preferred = -1 } in
  (* Arena headers and initial blocks first; the superblock flush is the
     commit of the whole split. *)
  let write_arena_header a =
    Pmem.write_int64 pmem a.abase arena_magic;
    Pmem.write_int pmem (Offset.add a.abase 8) a.alen;
    Pmem.write_int64 pmem (Offset.add a.abase 24) (arena_crc ~alen:a.alen);
    Pmem.flush pmem ~off:a.abase ~len:header_size
  in
  Array.iter
    (fun a ->
      write_arena_header a;
      write_size_tag t (first_block a) (a.alen - header_size))
    arena_arr;
  Pmem.write_int64 pmem base magic;
  Pmem.write_int pmem (Offset.add base 8) len;
  Pmem.write_int pmem (Offset.add base 16) arenas;
  Pmem.write_int64 pmem (Offset.add base 24) (superblock_crc ~len ~arenas);
  Pmem.flush pmem ~off:base ~len:superblock_size;
  Array.iter (index_arena t) arena_arr;
  t

let arena_header_ok pmem a =
  Int64.equal (Pmem.read_int64 pmem a.abase) arena_magic
  && Pmem.read_int pmem (Offset.add a.abase 8) = a.alen
  && ((not (Integrity.enabled ()))
     || Int64.equal
          (Pmem.read_int64 pmem (Offset.add a.abase 24))
          (arena_crc ~alen:a.alen))

(* An arena header is entirely a function of the (checksummed) superblock
   geometry, so a rotten header is repairable in place, not fatal. *)
let repair_arena_header pmem a =
  Pmem.write_int64 pmem a.abase arena_magic;
  Pmem.write_int pmem (Offset.add a.abase 8) a.alen;
  Pmem.write_int64 pmem (Offset.add a.abase 24) (arena_crc ~alen:a.alen);
  Pmem.flush pmem ~off:a.abase ~len:header_size

let attach_internal ?(repair_headers = false) ?(report = ignore) pmem ~base =
  let m = Pmem.read_int64 pmem base in
  if not (Int64.equal m magic) then
    invalid_arg "Heap.open_existing: bad magic (not a heap region)";
  let len = Pmem.read_int pmem (Offset.add base 8) in
  let arenas = Pmem.read_int pmem (Offset.add base 16) in
  if arenas < 1 || len < superblock_size + (arenas * (header_size + min_block))
  then invalid_arg "Heap.open_existing: corrupt superblock";
  if
    Integrity.enabled ()
    && not
         (Int64.equal
            (Pmem.read_int64 pmem (Offset.add base 24))
            (superblock_crc ~len ~arenas))
  then begin
    note_detected ();
    invalid_arg "Heap.open_existing: superblock checksum mismatch"
  end;
  let stride, arena_arr = arena_layout ~base ~len ~arenas in
  Array.iteri
    (fun i a ->
      if not (arena_header_ok pmem a) then
        if repair_headers then begin
          note_detected ();
          repair_arena_header pmem a;
          note_repaired ();
          report (Repaired_arena_header { arena = i })
        end
        else begin
          note_detected ();
          invalid_arg "Heap.open_existing: bad arena header"
        end)
    arena_arr;
  { pmem; base; len; stride; arenas = arena_arr; preferred = -1 }

let attach pmem ~base = attach_internal pmem ~base
let open_existing pmem ~base = attach pmem ~base

(* Walk every arena in address order (arena order = address order);
   quarantined arenas are skipped — their tiling cannot be walked. *)
let fold_blocks t f acc =
  Array.fold_left
    (fun acc a -> if a.quarantined then acc else fold_arena_blocks t a f acc)
    acc t.arenas

let iter_blocks t f =
  fold_blocks t
    (fun () ~block ~size ~allocated -> f ~off:block ~size ~allocated)
    ()

let recover_arena t a =
  (* Pass 1: coalesce adjacent non-allocated blocks.  Growing the first
     block's size field is the atomic commit of each merge; the absorbed
     block's header becomes dead data, so a repeated failure re-runs the walk
     on a consistent tiling. *)
  let stop = Offset.to_int (arena_end a) in
  let rec coalesce block =
    if Offset.to_int block < stop then begin
      let tag = read_size_tag t block in
      check_block a block tag;
      let size = block_size tag in
      if is_allocated tag then coalesce (Offset.add block size)
      else begin
        let next = Offset.add block size in
        if Offset.to_int next < stop then begin
          let next_tag = read_size_tag t next in
          check_block a next next_tag;
          if is_allocated next_tag then coalesce next
          else begin
            write_size_tag t block (size + block_size next_tag);
            coalesce block
          end
        end
      end
    end
  in
  coalesce (first_block a);
  (* Pass 2: index every free block, including those leaked by a crash
     between an allocation's commit and the client's own persist. *)
  index_arena t a

(* Online detect-and-degrade: called when an allocation or free trips over
   a corrupt tag inside arena [i].  There is no second copy of the tiling
   to rebuild from, so the arena goes out of service.  Caller holds
   [a.mu]. *)
let quarantine i a reason =
  a.quarantined <- true;
  note_quarantined ();
  if Obs.Config.enabled () then
    Obs.Trace.record
      (Obs.Trace.Fault_note
         { what = Printf.sprintf "heap: arena %d quarantined (%s)" i reason })

let recover ?(report = ignore) pmem ~base =
  let t = attach_internal ~repair_headers:true ~report pmem ~base in
  (* Arenas are rebuilt one after another from the same crash-consistent
     block tags; each rebuild is idempotent, so repeated failures during
     recovery simply restart the sequence.  An arena whose tiling fails its
     checksums is quarantined rather than aborting the whole recovery. *)
  Array.iteri
    (fun i a ->
      match recover_arena t a with
      | () -> ()
      | exception Invalid_argument reason ->
          a.quarantined <- true;
          note_quarantined ();
          report (Quarantined_arena { arena = i; reason }))
    t.arenas;
  t

(* The arena that owns a block offset, by address range.  [stride] divides
   the region uniformly except for the last arena's remainder, which the
   clamp absorbs. *)
let arena_index_of_block t block =
  let off = Offset.to_int block in
  let b = Offset.to_int t.base in
  if off < b + superblock_size + header_size || off >= b + t.len then
    invalid_arg "Heap: offset outside the heap region";
  min ((off - b - superblock_size) / t.stride) (Array.length t.arenas - 1)

let arena_index t payload = arena_index_of_block t (block_of_payload payload)

let home_arena t =
  if t.preferred >= 0 then t.preferred
  else (Domain.self () :> int) mod Array.length t.arenas

(* Best fit over the arena's index: the position of the smallest free block
   of size >= need, or -1.  The first exact fit ends the scan, which runs
   newest entry first so a just-freed block is found at once; exact fits
   are reused whole, which keeps repetitive workloads (e.g. the resizable
   stack's grow/shrink cycles) at a fragmentation steady state — coalescing
   only happens offline, at recovery.  A top-level recursion over plain
   [int]s keeps [alloc] free of minor-heap allocations (see the note in
   [Nvram.Pmem]). *)
let rec best_fit a need k best =
  if k < 0 then best
  else
    let size = a.free_size.(k) in
    if size = need then k
    else if size > need && (best < 0 || size < a.free_size.(best)) then
      best_fit a need (k - 1) k
    else best_fit a need (k - 1) best

(* Returns the payload offset as a plain [int]; [0] means no fit (a real
   payload offset is never 0: block headers start past the superblock and
   the arena header).  The chosen block leaves the index before the commit
   write; a split's remainder returns to it only after the commit flush. *)
let arena_alloc_locked t a need =
  if not a.indexed then index_arena t a;
  let k = best_fit a need (a.nfree - 1) (-1) in
  if k < 0 then 0
  else begin
    let block = a.free_off.(k) and size = a.free_size.(k) in
    index_remove a k;
    if size - need >= min_block then begin
      (* Split: carve the allocation from the tail of [block].  The
         new header is written into what is still free space; the
         atomic commit is shrinking [block]'s size. *)
      let carved = block + size - need in
      write_size_tag t (Offset.of_int carved) (need lor 1);
      write_size_tag t (Offset.of_int block) (size - need);
      index_add a block (size - need);
      carved + block_header_size
    end
    else begin
      (* Exact fit: setting the allocated bit is the commit. *)
      write_size_tag t (Offset.of_int block) (size lor 1);
      block + block_header_size
    end
  end

(* The lock is taken manually rather than through [Mutex.protect]: this
   path runs once per [alloc] and must not allocate.  A tiling that fails
   its checksums while a lazy index is built quarantines the arena and
   reports "no fit", so the caller steals from a healthy arena. *)
let arena_alloc t i a need =
  Mutex.lock a.mu;
  match
    if a.quarantined then 0
    else
      try arena_alloc_locked t a need
      with Invalid_argument reason ->
        quarantine i a reason;
        0
  with
  | payload ->
      Mutex.unlock a.mu;
      payload
  | exception e ->
      Mutex.unlock a.mu;
      raise e

let arena_largest_free t a =
  Mutex.protect a.mu (fun () ->
      if a.quarantined then 0
      else
        fold_arena_blocks t a
          (fun acc ~block:_ ~size ~allocated ->
            if allocated then acc else max acc (size - block_header_size))
          0)

(* The home arena is tried first so allocation from a bound view never
   crosses another worker's lock; exhaustion falls through to stealing
   round-robin from the remaining arenas before giving up.  A top-level
   recursion (rather than a local closure over [need]/[home]) keeps the
   per-allocation path free of closure allocations. *)
let rec alloc_from t n need home n_arenas i =
  if i = n_arenas then
    let largest =
      Array.fold_left (fun acc a -> max acc (arena_largest_free t a)) 0
        t.arenas
    in
    raise (Out_of_heap_memory { requested = n; largest_free = largest })
  else
    let idx = (home + i) mod n_arenas in
    let a = t.arenas.(idx) in
    let payload = arena_alloc t idx a need in
    if payload = 0 then alloc_from t n need home n_arenas (i + 1)
    else begin
      if Obs.Config.enabled () then
        Obs.Trace.record (Obs.Trace.Heap_alloc { payload; size = need });
      Offset.of_int payload
    end

let alloc t n =
  if n < 1 then invalid_arg "Heap.alloc: size must be >= 1";
  let need = max min_block (align16 n + block_header_size) in
  alloc_from t n need (home_arena t) (Array.length t.arenas) 0

let check_in_arena a block =
  if
    Offset.to_int block < Offset.to_int (first_block a)
    || Offset.to_int block >= Offset.to_int (arena_end a)
  then invalid_arg "Heap: offset outside the heap region"

(* Validates the block under [payload] and returns its whole size. *)
let assert_allocated t a payload =
  let block = block_of_payload payload in
  check_in_arena a block;
  let tag = read_size_tag t block in
  check_block a block tag;
  if not (is_allocated tag) then
    invalid_arg "Heap: block is not allocated (double free?)";
  block_size tag

(* Clearing the allocated bit is the commit; the block joins the index
   only after that flush.  A corrupt tag under the payload quarantines the
   arena and drops the free; a double free raises [Invalid_argument]. *)
let free_locked t a payload =
  let block = block_of_payload payload in
  check_in_arena a block;
  let tag = read_size_tag t block in
  match check_block a block tag with
  | exception Invalid_argument reason ->
      quarantine (arena_index_of_block t block) a reason
  | () ->
      if not (is_allocated tag) then
        invalid_arg "Heap: block is not allocated (double free?)";
      write_size_tag t block (block_size tag);
      if a.indexed then index_add a (Offset.to_int block) (block_size tag);
      if Obs.Config.enabled () then
        Obs.Trace.record
          (Obs.Trace.Heap_free { payload = Offset.to_int payload })

(* [free] routes by address range, not by the view's binding: a payload
   allocated by worker i and freed by worker j still returns to arena i.

   A free into a quarantined arena is dropped: the arena's metadata is not
   trustworthy enough to write into, so the block leaks (bounded by the
   arena) instead of corrupting further. *)
let free t payload =
  let a = t.arenas.(arena_index t payload) in
  Mutex.lock a.mu;
  match
    if a.quarantined then
      note_detected () (* the drop is visible, never silent *)
    else free_locked t a payload
  with
  | () -> Mutex.unlock a.mu
  | exception e ->
      Mutex.unlock a.mu;
      raise e

type reclaimed = { blocks : int; bytes : int }

let retain t ~live =
  (* Membership is a hash set keyed on the payload offset, so the liveness
     scan is O(dead + live) instead of the O(dead × live) a [List.exists]
     per block would cost — system recoveries pass every stack block and
     every structure node as a root, so [live] is big exactly when the heap
     is big. *)
  let live_set = Hashtbl.create (max 16 (2 * List.length live)) in
  List.iter
    (fun payload -> Hashtbl.replace live_set (Offset.to_int payload) ())
    live;
  (* Arena by arena, under that arena's lock; dead blocks always belong to
     the arena being scanned, so no reclamation crosses a lock. *)
  Array.fold_left
    (fun acc a ->
      if a.quarantined then acc
      else
        Mutex.protect a.mu (fun () ->
          let dead, bytes =
            fold_arena_blocks t a
              (fun (dead, bytes) ~block ~size ~allocated ->
                let payload = payload_of_block block in
                if
                  allocated
                  && not (Hashtbl.mem live_set (Offset.to_int payload))
                then (payload :: dead, bytes + size)
                else (dead, bytes))
              ([], 0)
          in
          List.iter (free_locked t a) dead;
          {
            blocks = acc.blocks + List.length dead;
            bytes = acc.bytes + bytes;
          }))
    { blocks = 0; bytes = 0 }
    t.arenas

let payload_size t payload =
  let a = t.arenas.(arena_index t payload) in
  Mutex.lock a.mu;
  match
    if a.quarantined then
      invalid_arg "Nvheap.Heap: block belongs to a quarantined arena"
    else assert_allocated t a payload
  with
  | size ->
      Mutex.unlock a.mu;
      size - block_header_size
  | exception e ->
      Mutex.unlock a.mu;
      raise e

let free_bytes t =
  Array.fold_left
    (fun acc a ->
      if a.quarantined then acc
      else
        Mutex.protect a.mu (fun () ->
            fold_arena_blocks t a
              (fun acc ~block:_ ~size ~allocated ->
                if allocated then acc else acc + size - block_header_size)
              acc))
    0 t.arenas

let largest_free t =
  Array.fold_left (fun acc a -> max acc (arena_largest_free t a)) 0 t.arenas

let block_count t ~allocated:want =
  Array.fold_left
    (fun acc a ->
      if a.quarantined then acc
      else
        Mutex.protect a.mu (fun () ->
            fold_arena_blocks t a
              (fun acc ~block:_ ~size:_ ~allocated ->
                if allocated = want then acc + 1 else acc)
              acc))
    0 t.arenas

(* The tiling walk validates every tag; the index must then name only
   blocks the tiling says are free, each once and at its tiled size. *)
let check_arena t i a =
  Mutex.protect a.mu (fun () ->
      if a.quarantined then Ok () (* out of service, by design — not an error *)
      else if not (arena_header_ok t.pmem a) then
        Error (Printf.sprintf "arena %d: header checksum mismatch" i)
      else
        let tiled = Hashtbl.create 16 in
        match
          fold_arena_blocks t a
            (fun () ~block ~size ~allocated ->
              if not allocated then
                Hashtbl.replace tiled (Offset.to_int block) size)
            ()
        with
        | exception Invalid_argument msg ->
            Error (Printf.sprintf "arena %d: %s" i msg)
        | () ->
            let rec go k =
              if (not a.indexed) || k = a.nfree then Ok ()
              else
                let b = a.free_off.(k) and size = a.free_size.(k) in
                match Hashtbl.find_opt tiled b with
                | Some s when s = size ->
                    Hashtbl.remove tiled b;
                    go (k + 1)
                | _ ->
                    Error
                      (Printf.sprintf
                         "arena %d: free index names block %d (%d bytes), \
                          which the tiling does not hold free at that size \
                          (or names it twice)"
                         i b size)
            in
            go 0)

let quarantined_arenas t =
  let acc = ref [] in
  Array.iteri (fun i a -> if a.quarantined then acc := i :: !acc) t.arenas;
  List.rev !acc

let quarantined_count t = List.length (quarantined_arenas t)

let check t =
  (* Superblock consistency: the recomputed split must tile the region. *)
  let tiled =
    Array.fold_left (fun acc a -> acc + a.alen) superblock_size t.arenas
  in
  if tiled <> t.len then
    Error
      (Printf.sprintf "superblock: arenas tile %d bytes of a %d-byte region"
         tiled t.len)
  else if
    Integrity.enabled ()
    && not
         (Int64.equal
            (Pmem.read_int64 t.pmem (Offset.add t.base 24))
            (superblock_crc ~len:t.len ~arenas:(Array.length t.arenas)))
  then Error "superblock: checksum mismatch"
  else
    let rec go i =
      if i = Array.length t.arenas then Ok ()
      else
        match check_arena t i t.arenas.(i) with
        | Ok () -> go (i + 1)
        | Error _ as e -> e
    in
    go 0

let pp fmt t =
  Format.fprintf fmt "@[<v>heap at %a, %d bytes, %d arena(s)@," Offset.pp
    t.base t.len
    (Array.length t.arenas);
  Array.iteri
    (fun i a ->
      Format.fprintf fmt "  arena %d at %a, %d bytes%s@," i Offset.pp a.abase
        a.alen
        (if a.quarantined then " [QUARANTINED]" else "");
      if not a.quarantined then
        fold_arena_blocks t a
          (fun () ~block ~size ~allocated ->
            Format.fprintf fmt "    %a: %6d bytes, %s@," Offset.pp block size
              (if allocated then "allocated" else "free"))
          ())
    t.arenas;
  Format.fprintf fmt "@]"
