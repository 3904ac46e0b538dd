module Crash = Nvram.Crash

open Effect
open Effect.Deep

type _ Effect.t += Yield : unit Effect.t

type decision = Run of int | Crash_here

type point = {
  index : int;
  op : int;
  enabled : int list;
  current : int option;
  pending : (int * Crash.access) list;
  prev_reads : (int * int) list;
}

type fiber =
  | Not_started of (unit -> unit)
  | Suspended of (unit, unit) continuation
  | Finished

let default_decision p =
  match p.current with
  | Some c when List.mem c p.enabled -> Run c
  | _ -> (
      match p.enabled with
      | j :: _ -> Run j
      | [] -> invalid_arg "Coop.default_decision: no enabled worker")

let random_decision rng p =
  match p.enabled with
  | [] -> invalid_arg "Coop.random_decision: no enabled worker"
  | en -> Run (List.nth en (Random.State.int rng (List.length en)))

let spawn ~crash_ctl ~decide : System.spawn =
 fun body workers ->
  let fibers = Array.init workers (fun i -> Not_started (fun () -> body i)) in
  (* Footprint of the persistence op each suspended fiber is about to
     execute — recorded by the hook at the yield, so resuming fiber [i]
     executes exactly the access [pending.(i)] describes.  [None] before a
     fiber's first yield (it has not reached a device op yet) and after it
     finishes. *)
  let pending = Array.make workers None in
  (* Device lines read during the step that just ran, collected from the
     controller's read log when the step returns; the next decision point
     reports them as [prev_reads] so the reduction can attribute them to
     the transition that just executed. *)
  let last_reads = ref [] in
  let enabled () =
    List.init workers Fun.id
    |> List.filter (fun i -> fibers.(i) <> Finished)
  in
  (* The hook performs [Yield] at every persistence-operation entry of the
     running fiber — and only of the fiber: it is installed around each
     step, so the orchestrator's own device operations (task-table scans,
     reclaim sweeps) never yield.  After a crash the guard keeps resumed
     fibers from yielding again: each dies at its next device operation
     ([Crash_now]) or runs to completion, so one resume drains it. *)
  let step i =
    let hook access =
      pending.(i) <- Some access;
      if not (Crash.crashed crash_ctl) then perform Yield
    in
    Crash.set_scheduler crash_ctl (Some hook);
    Fun.protect
      ~finally:(fun () ->
        (* Collect before uninstalling: [set_scheduler None] drops the
           read log. *)
        last_reads := Crash.take_reads crash_ctl;
        Crash.set_scheduler crash_ctl None)
      (fun () ->
        match fibers.(i) with
        | Finished -> ()
        | Suspended k -> continue k ()
        | Not_started f ->
            match_with f ()
              {
                retc =
                  (fun () ->
                    fibers.(i) <- Finished;
                    pending.(i) <- None);
                exnc =
                  (fun exn ->
                    fibers.(i) <- Finished;
                    pending.(i) <- None;
                    raise exn);
                effc =
                  (fun (type a) (eff : a Effect.t) ->
                    match eff with
                    | Yield ->
                        Some
                          (fun (k : (a, unit) continuation) ->
                            fibers.(i) <- Suspended k)
                    | _ -> None);
              })
  in
  let index = ref 0 in
  let current = ref None in
  let rec drain () =
    match enabled () with
    | [] -> ()
    | en ->
        List.iter step en;
        drain ()
  in
  let pending_of en =
    List.filter_map
      (fun i ->
        match pending.(i) with Some a -> Some (i, a) | None -> None)
      en
  in
  let rec loop () =
    match enabled () with
    | [] -> ()
    | _ when Crash.crashed crash_ctl ->
        (* An externally armed plan (replay's [At_op]) fired inside a
           step: stop scheduling and let every fiber die. *)
        drain ()
    | en -> (
        let point =
          { index = !index; op = Crash.ops crash_ctl; enabled = en;
            current = !current; pending = pending_of en;
            prev_reads = !last_reads }
        in
        incr index;
        match decide point with
        | Run j ->
            if not (List.mem j en) then
              invalid_arg "Coop.spawn: decision ran a finished worker";
            current := Some j;
            step j;
            loop ()
        | Crash_here ->
            Crash.trigger crash_ctl;
            drain ())
  in
  loop ()
