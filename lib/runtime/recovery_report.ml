type item =
  | Stack_repair of { worker : int; event : Pstack.Repair.event }
  | Heap_repair of Nvheap.Heap.repair

type t = { items : item list }

let empty = { items = [] }
let of_items items = { items }
let items t = t.items
let is_clean t = t.items = []

let quarantined_arenas t =
  List.filter_map
    (function
      | Heap_repair (Nvheap.Heap.Quarantined_arena { arena; _ }) -> Some arena
      | _ -> None)
    t.items

let repaired_count t =
  List.length
    (List.filter
       (function
         | Stack_repair _ | Heap_repair (Nvheap.Heap.Repaired_arena_header _) ->
             true
         | Heap_repair (Nvheap.Heap.Quarantined_arena _) -> false)
       t.items)

let quarantined_count t = List.length (quarantined_arenas t)

let pp_item fmt = function
  | Stack_repair { worker; event } ->
      Format.fprintf fmt "worker %d %a" worker Pstack.Repair.pp_event event
  | Heap_repair r -> Format.fprintf fmt "heap: %a" Nvheap.Heap.pp_repair r

let pp fmt t =
  if is_clean t then Format.fprintf fmt "recovery clean (no media repairs)"
  else begin
    Format.fprintf fmt "@[<v>recovery repaired %d, quarantined %d:"
      (repaired_count t) (quarantined_count t);
    List.iter (fun it -> Format.fprintf fmt "@,  %a" pp_item it) t.items;
    Format.fprintf fmt "@]"
  end

let to_string t = Format.asprintf "%a" pp t
