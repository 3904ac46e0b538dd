module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Integrity = Nvram.Integrity

exception Out_of_heap_memory of { requested : int; largest_free : int }

(* Persistent layout: a superblock fanning out to per-domain arenas.

   superblock (at [base], [superblock_size] bytes):
     +0  magic "NVHEAP03"
     +8  total region length (superblock + all arenas)
     +16 arena count
     +24 FNV-64 checksum of the three fields above

   arena i (at [base + superblock_size + i*stride]; every arena is [stride]
   bytes except the last, which absorbs the remainder so the arenas tile
   [base + superblock_size, base + len) exactly):
     +0  arena magic "NVHEAP01"
     +8  arena region length (header + blocks)
     +16 free-list head (absolute device offset of a block header; 0 = none)
     +24 FNV-64 checksum of the magic and the length (NOT the head: the
         head is the commit word of alloc/free and must stay 8-byte
         atomic; a rotten head is caught structurally by the budgeted
         free-list walk instead)

   block (16-byte header + payload):
     +0  size_tag: bits 0..47 hold the whole block size in bytes (multiple
         of 16) with bit 0 set iff the block is allocated; bits 48..62
         hold a 15-bit integrity code of the low half, so a rotted or torn
         tag is detected instead of walking the heap off a cliff
     +8  next free block (meaningful only while the block is free)

   Blocks tile [abase + header_size, abase + alen) exactly within each
   arena; every mutation preserves the tiling and commits with a single
   8-byte flush.  Formatting commits with the superblock flush, written
   after every arena header: a crash mid-format leaves a region that fails
   the magic test rather than a half-split heap.

   Media faults degrade, not crash: a corrupt free-list entry triggers an
   in-place rebuild of that arena's list from the (checksummed) block
   tiling; a corrupt block tag makes the tiling itself unwalkable, so the
   arena is quarantined — allocation routes around it, frees into it are
   dropped (the block leaks, bounded by the arena size), and aggregate
   scans skip it. *)

let superblock_size = 64
let header_size = 32
let block_header_size = 16
let min_block = 32
let magic = 0x4E56484541503033L (* "NVHEAP03" *)
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
  | Rebuilt_free_list of { arena : int; reason : string }
  | Repaired_arena_header of { arena : int }
  | Quarantined_arena of { arena : int; reason : string }

let pp_repair fmt = function
  | Rebuilt_free_list { arena; reason } ->
      Format.fprintf fmt "arena %d: free list rebuilt (%s)" arena reason
  | Repaired_arena_header { arena } ->
      Format.fprintf fmt "arena %d: header rewritten from geometry" arena
  | Quarantined_arena { arena; reason } ->
      Format.fprintf fmt "arena %d: QUARANTINED (%s)" arena reason

type arena = {
  abase : Offset.t;
  alen : int;
  mu : Mutex.t;
  (* Scratch result slots for the allocator's best-fit scan, guarded by
     [mu].  Plain [int] fields instead of a returned tuple (and a
     top-level scan instead of a local closure) keep [alloc] free of
     minor-heap allocations — minor collections stop the world across
     all domains. *)
  mutable best_prev : int;
  mutable best_block : int;
  mutable best_size : int;
  (* Set (under [mu]) when the arena's block tiling is unwalkable — a tag
     failed its checksum and the rebuild scan could not get past it.
     Allocation, free and every aggregate scan route around a quarantined
     arena. *)
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
      best_prev = 0;
      best_block = 0;
      best_size = 0;
      quarantined = false;
    }
  in
  (stride, Array.init arenas mk)

(* Per-arena field accessors; all offsets handled as plain ints internally. *)
let head_off a = Offset.add a.abase 16
let first_block a = Offset.add a.abase header_size
let arena_end a = Offset.add a.abase a.alen

let read_head t a = Pmem.read_int t.pmem (head_off a)

let write_head t a v =
  Pmem.write_int t.pmem (head_off a) v;
  Pmem.flush t.pmem ~off:(head_off a) ~len:8

let size_tag_off block = block
let next_off block = Offset.add block 8
let payload_of_block block = Offset.add block block_header_size
let block_of_payload payload = Offset.add payload (-block_header_size)

let read_size_tag t block = Pmem.read_int t.pmem (size_tag_off block)

(* [v] is the 48-bit payload (size | allocated bit); the integrity code is
   stamped here so no caller can write an uncoded tag. *)
let write_size_tag t block v =
  Pmem.write_int t.pmem (size_tag_off block) (mk_tag v);
  Pmem.flush t.pmem ~off:(size_tag_off block) ~len:8

let read_next t block = Pmem.read_int t.pmem (next_off block)

let write_next t block v =
  Pmem.write_int t.pmem (next_off block) v;
  Pmem.flush t.pmem ~off:(next_off block) ~len:8

let block_size tag = tag land tag_payload_mask land lnot 1
let is_allocated tag = tag land 1 = 1

let check_block t a block tag =
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
  end;
  ignore t

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
    Pmem.write_int pmem (head_off a) (Offset.to_int (first_block a));
    Pmem.write_int64 pmem (Offset.add a.abase 24) (arena_crc ~alen:a.alen);
    Pmem.flush pmem ~off:a.abase ~len:header_size
  in
  Array.iter
    (fun a ->
      write_arena_header a;
      write_size_tag t (first_block a) (a.alen - header_size);
      write_next t (first_block a) 0)
    arena_arr;
  Pmem.write_int64 pmem base magic;
  Pmem.write_int pmem (Offset.add base 8) len;
  Pmem.write_int pmem (Offset.add base 16) arenas;
  Pmem.write_int64 pmem (Offset.add base 24) (superblock_crc ~len ~arenas);
  Pmem.flush pmem ~off:base ~len:superblock_size;
  t

let arena_header_ok pmem a =
  Int64.equal (Pmem.read_int64 pmem a.abase) arena_magic
  && Pmem.read_int pmem (Offset.add a.abase 8) = a.alen
  && ((not (Integrity.enabled ()))
     || Int64.equal
          (Pmem.read_int64 pmem (Offset.add a.abase 24))
          (arena_crc ~alen:a.alen))

(* An arena header is entirely a function of the (checksummed) superblock
   geometry except for the free-list head, which [recover]'s pass 2 rewrites
   anyway — so a rotten header is repairable in place, not fatal. *)
let repair_arena_header pmem a =
  Pmem.write_int64 pmem a.abase arena_magic;
  Pmem.write_int pmem (Offset.add a.abase 8) a.alen;
  Pmem.write_int pmem (head_off a) 0;
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

(* Walk one arena's block tiling in address order. *)
let fold_arena_blocks t a f acc =
  let stop = Offset.to_int (arena_end a) in
  let rec go block acc =
    if Offset.to_int block >= stop then acc
    else begin
      let tag = read_size_tag t block in
      check_block t a block tag;
      let acc =
        f acc ~block ~size:(block_size tag) ~allocated:(is_allocated tag)
      in
      go (Offset.add block (block_size tag)) acc
    end
  in
  go (first_block a) acc

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

let rec recover_arena t a =
  (* Pass 1: coalesce adjacent non-allocated blocks.  Growing the first
     block's size field is the atomic commit of each merge; the absorbed
     block's header becomes dead data, so a repeated failure re-runs the walk
     on a consistent tiling. *)
  let stop = Offset.to_int (arena_end a) in
  let rec coalesce block =
    if Offset.to_int block < stop then begin
      let tag = read_size_tag t block in
      check_block t a block tag;
      let size = block_size tag in
      if is_allocated tag then coalesce (Offset.add block size)
      else begin
        let next = Offset.add block size in
        if Offset.to_int next < stop then begin
          let next_tag = read_size_tag t next in
          check_block t a next next_tag;
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
  (* Pass 2: rebuild the free list from scratch (reclaims blocks leaked by a
     crash between an allocation's commit and the client's own persist). *)
  relink_free_list t a

(* Rewrite one arena's free list from its block tiling: the list side of the
   metadata is wholly redundant with the (checksummed) tags, so any free-list
   corruption — rotten next pointer, cycle, head into an allocated block —
   is repaired by this scan.  Raises [Invalid_argument] if the tiling itself
   is corrupt; callers then quarantine.  Caller holds [a.mu] (or is single-
   threaded recovery). *)
and relink_free_list t a =
  let free_blocks =
    List.rev
      (fold_arena_blocks t a
         (fun acc ~block ~size:_ ~allocated ->
           if allocated then acc else block :: acc)
         [])
  in
  let rec link = function
    | [] -> ()
    | [ last ] -> write_next t last 0
    | b :: (next :: _ as rest) ->
        write_next t b (Offset.to_int next);
        link rest
  in
  link free_blocks;
  match free_blocks with
  | [] -> write_head t a 0
  | first :: _ -> write_head t a (Offset.to_int first)

(* Online detect-and-degrade: called when an allocation or free trips over
   corrupt metadata inside arena [i].  Tries the free-list rebuild; if the
   tiling walk itself cannot complete, the arena is quarantined.  Returns
   [true] iff the arena was repaired and the caller may retry once.  Caller
   holds [a.mu]. *)
let rebuild_or_quarantine t i a ~reason =
  match relink_free_list t a with
  | () ->
      note_repaired ();
      if Obs.Config.enabled () then
        Obs.Trace.record
          (Obs.Trace.Fault_note
             {
               what =
                 Printf.sprintf "heap: arena %d free list rebuilt (%s)" i
                   reason;
             });
      true
  | exception Invalid_argument why ->
      a.quarantined <- true;
      note_quarantined ();
      if Obs.Config.enabled () then
        Obs.Trace.record
          (Obs.Trace.Fault_note
             { what = Printf.sprintf "heap: arena %d quarantined (%s)" i why });
      false

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

(* Best fit within one arena: the smallest free block of size >= need,
   remembering its predecessor so we can unlink without a doubly-linked
   list.  Exact fits are reused whole, which keeps repetitive workloads
   (e.g. the resizable stack's grow/shrink cycles) at a fragmentation steady
   state — coalescing only happens offline, at recovery. *)
(* Returns the payload offset as a plain [int]; [0] means no fit (a real
   payload offset is never 0: block headers start past the superblock and
   the arena header).  The scan carries its best candidate in plain [int]
   accumulators and the lock is taken manually rather than through
   [Mutex.protect]: this path runs once per [alloc], and per-operation
   allocations feed the minor GC, whose collections stop the world across
   all domains (see the note in [Nvram.Pmem]). *)
(* [budget] bounds the walk by the largest free list the arena can hold:
   a corrupt [next] pointer can close a cycle without tripping any
   checksum, and an unbounded walk would spin forever.  Exhausting the
   budget is treated exactly like a checksum failure — the list is
   rebuilt from the tiling. *)
let rec find_best t a need budget prev block best_prev best_block best_size =
  if block = 0 then begin
    a.best_prev <- best_prev;
    a.best_block <- best_block;
    a.best_size <- best_size
  end
  else begin
    if budget <= 0 then begin
      note_detected ();
      invalid_arg "Nvheap.Heap: free-list walk exceeded arena capacity (cycle?)"
    end;
    let boff = Offset.of_int block in
    if block < Offset.to_int (first_block a) || block >= Offset.to_int (arena_end a)
    then begin
      note_detected ();
      invalid_arg
        (Printf.sprintf "Nvheap.Heap: free-list entry %d escapes its arena"
           block)
    end;
    let tag = read_size_tag t boff in
    check_block t a boff tag;
    let size = block_size tag in
    if size = need then begin
      (* exact fit: stop *)
      a.best_prev <- prev;
      a.best_block <- block;
      a.best_size <- size
    end
    else if size > need && (best_block = 0 || size < best_size) then
      find_best t a need (budget - 1) block (read_next t boff) prev block size
    else
      find_best t a need (budget - 1) block (read_next t boff) best_prev
        best_block best_size
  end

let walk_budget a = (a.alen / min_block) + 1

let arena_alloc_locked t a need =
  find_best t a need (walk_budget a) 0 (read_head t a) 0 0 0;
  let prev = a.best_prev and block = a.best_block and size = a.best_size in
  if block = 0 then 0
  else begin
    let block = Offset.of_int block in
    if size - need >= min_block then begin
      (* Split: carve the allocation from the tail of [block].  The
         new header is written into what is still free space; the
         atomic commit is shrinking [block]'s size. *)
      let carved = Offset.add block (size - need) in
      write_size_tag t carved (need lor 1);
      write_size_tag t block (size - need);
      Offset.to_int (payload_of_block carved)
    end
    else begin
      (* Unlink [block]; the pointer write is the atomic commit. *)
      let next = read_next t block in
      if prev = 0 then write_head t a next
      else write_next t (Offset.of_int prev) next;
      write_size_tag t block (size lor 1);
      Offset.to_int (payload_of_block block)
    end
  end

(* Corrupt metadata inside the arena degrades instead of raising: the free
   list is rebuilt from the tiling and the allocation retried once; an
   unwalkable tiling quarantines the arena and reports "no fit" so the
   caller steals from a healthy arena. *)
let arena_alloc t i a need =
  Mutex.lock a.mu;
  match
    if a.quarantined then 0
    else
      try arena_alloc_locked t a need
      with Invalid_argument reason ->
        if rebuild_or_quarantine t i a ~reason then arena_alloc_locked t a need
        else 0
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

(* Validates the block under [payload] and returns its whole size (the
   block offset itself is just [block_of_payload payload]; not returning a
   pair keeps [free] allocation-free). *)
let assert_allocated t a payload =
  let block = block_of_payload payload in
  if
    Offset.to_int block < Offset.to_int (first_block a)
    || Offset.to_int block >= Offset.to_int (arena_end a)
  then invalid_arg "Heap: offset outside the heap region";
  let tag = read_size_tag t block in
  check_block t a block tag;
  if not (is_allocated tag) then
    invalid_arg "Heap: block is not allocated (double free?)";
  block_size tag

(* Prepare the node fully, then commit with the head write.  A crash before
   the commit leaves the block unreachable and untagged, which [recover]
   reclaims. *)
let free_locked t a payload =
  let size = assert_allocated t a payload in
  let block = block_of_payload payload in
  write_next t block (read_head t a);
  write_size_tag t block size;
  write_head t a (Offset.to_int block);
  if Obs.Config.enabled () then
    Obs.Trace.record (Obs.Trace.Heap_free { payload = Offset.to_int payload })

(* [free] routes by address range, not by the view's binding: a payload
   allocated by worker i and freed by worker j still returns to arena i.

   A free into a quarantined arena is dropped: the arena's metadata is not
   trustworthy enough to link into, so the block leaks (bounded by the
   arena) instead of corrupting further.  A corrupt header found under the
   payload itself triggers the rebuild-and-retry; a double free keeps
   raising [Invalid_argument] (the rebuild does not change an allocated
   bit, so the retry fails identically). *)
let free t payload =
  let i = arena_index t payload in
  let a = t.arenas.(i) in
  Mutex.lock a.mu;
  match
    if a.quarantined then
      note_detected () (* the drop is visible, never silent *)
    else
      try free_locked t a payload
      with Invalid_argument reason ->
        if rebuild_or_quarantine t i a ~reason then free_locked t a payload
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

let check_arena t i a =
  Mutex.protect a.mu (fun () ->
      if a.quarantined then Ok () (* out of service, by design — not an error *)
      else if not (arena_header_ok t.pmem a) then
        Error (Printf.sprintf "arena %d: header checksum mismatch" i)
      else
      try
        (* The tiling walk itself validates block headers. *)
        let blocks =
          fold_arena_blocks t a
            (fun acc ~block ~size:_ ~allocated ->
              (Offset.to_int block, allocated) :: acc)
            []
        in
        let free_set =
          List.filter_map
            (fun (off, allocated) -> if allocated then None else Some off)
            blocks
        in
        let lo = Offset.to_int (first_block a) in
        let hi = Offset.to_int (arena_end a) in
        (* The free list must be acyclic, stay inside this arena, and
           contain only untagged blocks. *)
        let seen = Hashtbl.create 16 in
        let rec follow cursor =
          if cursor = 0 then Ok ()
          else if cursor < lo || cursor >= hi then
            Error
              (Printf.sprintf
                 "arena %d: free-list entry %d escapes its owning arena \
                  [%d, %d)"
                 i cursor lo hi)
          else if Hashtbl.mem seen cursor then
            Error (Printf.sprintf "arena %d: free list has a cycle" i)
          else if not (List.mem cursor free_set) then
            Error
              (Printf.sprintf "arena %d: free list points to non-free block \
                               at %d"
                 i cursor)
          else begin
            Hashtbl.add seen cursor ();
            follow (read_next t (Offset.of_int cursor))
          end
        in
        follow (read_head t a)
      with Invalid_argument msg ->
        Error (Printf.sprintf "arena %d: %s" i msg))

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
