module Offset = Nvram.Offset
module Heap = Nvheap.Heap
module Dump = Pstack.Dump

type finding = { where : string; detail : string; repaired : bool }
type t = { findings : finding list; fatal : bool }

let is_clean t = t.findings = [] && not t.fatal

let note_detected () = Obs.Counters.incr Obs.Probe.counters Faults_detected

(* A healthy dump is frames with good CRCs ending in a STACK-END marker; the
   trailing [Invalid_tail] after the top frame is the normal "rest of the
   region is dead" line and not damage. *)
let stack_findings ~where lines =
  let rec go acc saw_end = function
    | [] -> acc
    | Dump.Frame { off; crc_ok; last; _ } :: rest ->
        let acc =
          if crc_ok then acc
          else
            {
              where;
              detail =
                Printf.sprintf "frame at %d fails its checksum"
                  (Offset.to_int off);
              repaired = false;
            }
            :: acc
        in
        go acc (saw_end || last) rest
    | Dump.Pointer_frame { off; crc_ok; _ } :: rest ->
        let acc =
          if crc_ok then acc
          else
            {
              where;
              detail =
                Printf.sprintf "pointer frame at %d fails its checksum"
                  (Offset.to_int off);
              repaired = false;
            }
            :: acc
        in
        go acc saw_end rest
    | Dump.Invalid_tail { off; note } :: rest ->
        let acc =
          if saw_end then acc (* dead space after the top frame: normal *)
          else
            {
              where;
              detail =
                Printf.sprintf "scan broke at %d before any stack end: %s"
                  (Offset.to_int off) note;
              repaired = false;
            }
            :: acc
        in
        go acc saw_end rest
  in
  List.rev (go [] false lines)

let run ?(repair = false) pmem =
  match System.image_config pmem with
  | exception Invalid_argument reason ->
      note_detected ();
      { findings = [ { where = "superblock"; detail = reason; repaired = false } ];
        fatal = true }
  | config ->
      let findings = ref [] in
      let fatal = ref false in
      let add f = findings := f :: !findings in
      let heap_base = System.image_heap_base pmem config in
      (* Heap first: a repair pass rewrites rotten arena headers and
         sweeps (coalescing, rebuilding the free index, quarantining an
         unwalkable arena) before the heap-backed stacks re-attach through
         it. *)
      let heap =
        if repair then
          match
            Heap.recover
              ~report:(fun r ->
                add
                  {
                    where = "heap";
                    detail = Format.asprintf "%a" Heap.pp_repair r;
                    repaired =
                      (match r with Heap.Quarantined_arena _ -> false | _ -> true);
                  })
              pmem ~base:heap_base
          with
          | heap ->
              Heap.sweep heap;
              Some heap
          | exception Invalid_argument reason ->
              note_detected ();
              add { where = "heap"; detail = reason; repaired = false };
              fatal := true;
              None
        else
          match Heap.open_existing pmem ~base:heap_base with
          | heap -> Some heap
          | exception Invalid_argument reason ->
              add { where = "heap"; detail = reason; repaired = false };
              fatal := true;
              None
      in
      (match heap with
      | None -> ()
      | Some heap -> (
          (match Heap.check heap with
          | Ok () -> ()
          | Error detail ->
              note_detected ();
              add { where = "heap"; detail; repaired = false });
          List.iter
            (fun i ->
              add
                {
                  where = "heap";
                  detail = Printf.sprintf "arena %d is quarantined" i;
                  repaired = false;
                })
            (Heap.quarantined_arenas heap);
          (* Stacks: passively scan for checksum damage; in repair mode also
             re-attach, which truncates torn tails in place. *)
          for i = 0 to config.System.workers - 1 do
            let where = Printf.sprintf "worker %d stack" i in
            (match System.image_stack pmem config i with
            | lines ->
                let fs = stack_findings ~where lines in
                List.iter (fun _ -> note_detected ()) fs;
                List.iter add fs
            | exception _ ->
                note_detected ();
                add
                  {
                    where;
                    detail = "stack anchor or chain unreadable";
                    repaired = false;
                  });
            if repair then
              match
                System.attach_stack pmem config heap i ~report:(fun e ->
                    add
                      {
                        where;
                        detail = Pstack.Repair.event_to_string e;
                        repaired = true;
                      })
              with
              | _ -> ()
              | exception Pstack.Repair.Corrupt_stack { reason; _ } ->
                  add { where; detail = reason; repaired = false };
                  fatal := true
              | exception Invalid_argument reason ->
                  add { where; detail = reason; repaired = false };
                  fatal := true
          done))
      ;
      { findings = List.rev !findings; fatal = !fatal }

let pp fmt t =
  if is_clean t then Format.fprintf fmt "scrub: clean"
  else begin
    Format.fprintf fmt "@[<v>scrub: %d finding(s)%s"
      (List.length t.findings)
      (if t.fatal then " [FATAL]" else "");
    List.iter
      (fun { where; detail; repaired } ->
        Format.fprintf fmt "@,  %s: %s%s" where detail
          (if repaired then " [repaired]" else ""))
      t.findings;
    Format.fprintf fmt "@]"
  end

let to_string t = Format.asprintf "%a" pp t
