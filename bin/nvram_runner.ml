(* Kill-based crash emulation over a file-backed persistent image — the
   paper's own methodology (Section 5.2): "We used UNIX utility kill to
   interrupt the system at random moments".

   The parent process repeatedly spawns a worker process running the CAS
   workload against a persistent image file and SIGKILLs it at a random
   moment.  Unflushed state (the worker's entire address space, including
   the simulated volatile cache) genuinely disappears with the process;
   only bytes the protocols flushed reach the image file.  Each respawned
   worker starts in recovery mode, completes the interrupted operations,
   and continues the workload.  When a worker finally exits cleanly, the
   parent reads the answers and the final register value from the image
   and verifies the execution for serializability.

   Inside each worker process, [System.run] executes its workers on OCaml
   domains against the striped device, so a SIGKILL lands while the
   workers genuinely run in parallel on a multicore host.

   Subcommands:
     selftest   run a small end-to-end parent/kill/verify loop (E4)
     parent     the kill loop with configurable workload
     worker     one system process (spawned by parent; usable manually)
     verify     check an existing image for serializability *)

module Pmem = Nvram.Pmem
module Offset = Nvram.Offset
module Heap = Nvheap.Heap
module System = Runtime.System
module Value = Runtime.Value
module Rcas = Recoverable.Rcas

let image_size = 1 lsl 21
let attempt_id = 11
let cas_id = 12

type workload = {
  image : string;
  ops : int;
  seed : int;
  range : Verify.Generator.range;
  variant : Rcas.variant;
  workers : int;
  persist_delay : float;
}

let make_pmem w =
  let backend =
    Nvram.Backend.file ~persist_delay:w.persist_delay ~path:w.image
      ~size:image_size ()
  in
  Pmem.create ~auto_flush:true ~backend ~size:image_size ()

let make_registry w =
  let registry = Runtime.Registry.create () in
  let rcas = ref None in
  let handle () =
    match !rcas with Some r -> r | None -> failwith "register not bound"
  in
  Recoverable.Cas_op.register_attempt registry ~id:attempt_id handle;
  Recoverable.Cas_op.register_cas registry ~id:cas_id ~attempt_id handle;
  let bind pmem sys =
    let base = Option.get (System.root sys) in
    rcas :=
      Some (Rcas.attach pmem ~base ~nprocs:w.workers ~variant:w.variant)
  in
  (registry, rcas, handle, bind)

let config w =
  {
    System.workers = w.workers;
    stack_kind = System.Bounded_stack 4096;
    task_capacity = w.ops;
    task_max_args = 16;
  }

(* One system process: create-and-submit on a fresh image, attach-and-
   recover on an existing one, then run to completion of all tasks. *)
let run_worker w =
  let pmem = make_pmem w in
  let registry, rcas, _handle, bind = make_registry w in
  let init_value, pairs =
    Verify.Generator.workload ~seed:w.seed ~n:w.ops ~range:w.range
  in
  let sys =
    match System.attach pmem ~registry with
    | sys ->
        bind pmem sys;
        (match System.recover ~reclaim:(fun () -> Option.to_list (System.root sys)) sys with
        | `Completed -> ()
        | `Crashed -> assert false (* no in-process crash plan armed *));
        (* A kill can land between [System.create] and the last submit of
           the fresh-image branch below, leaving the image with fewer
           tasks than the workload.  Submission order is deterministic
           (same seeded generator), so top up the missing tail — another
           kill mid-top-up just converges on a later attempt. *)
        let submitted = List.length (System.results sys) in
        List.iteri
          (fun i (old_value, new_value) ->
            if i >= submitted then
              ignore
                (System.submit sys ~func_id:cas_id
                   ~args:(Value.of_int2 old_value new_value)))
          pairs;
        sys
    | exception Invalid_argument _ ->
        (* fresh image *)
        let sys = System.create pmem ~registry ~config:(config w) in
        let base =
          Heap.alloc (System.heap sys) (Rcas.region_size ~nprocs:w.workers)
        in
        rcas :=
          Some
            (Rcas.create pmem ~base ~nprocs:w.workers ~init:init_value
               ~variant:w.variant);
        System.set_root sys base;
        List.iter
          (fun (old_value, new_value) ->
            ignore
              (System.submit sys ~func_id:cas_id
                 ~args:(Value.of_int2 old_value new_value)))
          pairs;
        sys
  in
  match System.run sys with
  | `Completed -> 0
  | `Crashed -> assert false

let verify_image w =
  let pmem = make_pmem w in
  let registry, _rcas, handle, bind = make_registry w in
  let sys = System.attach pmem ~registry in
  bind pmem sys;
  let init_value, pairs =
    Verify.Generator.workload ~seed:w.seed ~n:w.ops ~range:w.range
  in
  let answers = System.results sys in
  let pending = List.filter (fun (_, a) -> a = None) answers in
  if pending <> [] then begin
    Printf.printf "image has %d unfinished tasks; run the worker first\n"
      (List.length pending);
    2
  end
  else begin
    let ops =
      List.map2
        (fun (expected, desired) (_, answer) ->
          {
            Verify.History.expected;
            desired;
            result = Value.bool_of_answer (Option.get answer);
          })
        pairs answers
    in
    let history =
      { Verify.History.init = init_value; final = Rcas.read (handle ()); ops }
    in
    let verdict = Verify.Serializability.check history in
    Format.printf "%d ops, final=%d: %a@." w.ops
      history.Verify.History.final Verify.Serializability.pp_verdict verdict;
    match verdict with
    | Verify.Serializability.Serializable _ -> 0
    | Verify.Serializability.Not_serializable _ -> 3
  end

(* The kill loop.  Spawns [worker] children against the same image and
   SIGKILLs each at a random moment until one exits cleanly.  A run whose
   worker completes before [min_kills] kills landed fails: it tested no
   recovery. *)
let run_parent ?(min_kills = 0) w ~max_kills ~min_delay ~max_delay =
  let rng = Random.State.make [| w.seed; 0xDEAD |] in
  let spawn () =
    let args =
      [|
        Sys.executable_name;
        "worker";
        "--image"; w.image;
        "--ops"; string_of_int w.ops;
        "--seed"; string_of_int w.seed;
        "--range"; (match w.range with
                    | Verify.Generator.Wide -> "wide"
                    | Verify.Generator.Narrow -> "narrow"
                    | Verify.Generator.Custom (_, hi) -> string_of_int hi);
        "--impl"; (match w.variant with Rcas.Correct -> "correct" | Rcas.Buggy -> "buggy");
        "--workers"; string_of_int w.workers;
        "--delay"; string_of_float w.persist_delay;
      |]
    in
    Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
      Unix.stderr
  in
  let rec attempt kills =
    let pid = spawn () in
    let deadline =
      Unix.gettimeofday ()
      +. min_delay
      +. Random.State.float rng (max_delay -. min_delay)
    in
    let rec supervise () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          if Unix.gettimeofday () >= deadline && kills < max_kills then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            let _, status = Unix.waitpid [] pid in
            ignore status;
            Printf.printf "killed worker (kill %d/%d)\n%!" (kills + 1) max_kills;
            attempt (kills + 1)
          end
          else begin
            Unix.sleepf 0.01;
            supervise ()
          end
      | _, Unix.WEXITED 0 ->
          Printf.printf "worker completed after %d kill(s)\n%!" kills;
          if kills < min_kills then begin
            print_endline "too few kills landed: no recovery was exercised";
            1
          end
          else verify_image w
      | _, Unix.WEXITED code ->
          Printf.printf "worker failed with exit code %d\n%!" code;
          1
      | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
          (* killed by someone else; just respawn *)
          attempt kills
    in
    supervise ()
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let range_of_string = function
  | "wide" -> Verify.Generator.Wide
  | "narrow" -> Verify.Generator.Narrow
  | s -> (
      match int_of_string_opt s with
      | Some hi when hi >= 0 -> Verify.Generator.Custom (- hi, hi)
      | _ -> failwith "range must be wide | narrow | <non-negative int>")

let variant_of_string = function
  | "correct" -> Rcas.Correct
  | "buggy" -> Rcas.Buggy
  | _ -> failwith "impl must be correct | buggy"

let workload_term ?(ops = 48) () =
  let image =
    Arg.(
      value
      & opt string "/tmp/nvram_runner.img"
      & info [ "image" ] ~docv:"PATH" ~doc:"Persistent image file.")
  in
  let ops = Arg.(value & opt int ops & info [ "ops" ] ~docv:"N") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED") in
  let range = Arg.(value & opt string "narrow" & info [ "range" ] ~docv:"RANGE") in
  let impl = Arg.(value & opt string "correct" & info [ "impl" ] ~docv:"IMPL") in
  let workers = Arg.(value & opt int 4 & info [ "workers" ] ~docv:"W") in
  let delay =
    Arg.(
      value & opt float 0.0003
      & info [ "delay" ] ~docv:"SECONDS"
          ~doc:"Per-persist device latency (models slow media).")
  in
  let make image ops seed range impl workers delay =
    {
      image;
      ops;
      seed;
      range = range_of_string range;
      variant = variant_of_string impl;
      workers;
      persist_delay = delay;
    }
  in
  Term.(const make $ image $ ops $ seed $ range $ impl $ workers $ delay)

let worker_cmd =
  Cmd.v (Cmd.info "worker" ~doc:"Run one system process against the image.")
    Term.(const (fun w -> Stdlib.exit (run_worker w)) $ workload_term ())

let verify_cmd =
  Cmd.v (Cmd.info "verify" ~doc:"Verify a completed image for serializability.")
    Term.(const (fun w -> Stdlib.exit (verify_image w)) $ workload_term ())

let parent_cmd =
  let max_kills =
    Arg.(value & opt int 50 & info [ "max-kills" ] ~docv:"K")
  in
  let min_delay =
    Arg.(value & opt float 0.15 & info [ "min-kill-delay" ] ~docv:"SECONDS")
  in
  let max_delay =
    Arg.(value & opt float 0.6 & info [ "max-kill-delay" ] ~docv:"SECONDS")
  in
  let run w max_kills min_delay max_delay =
    (try Sys.remove w.image with Sys_error _ -> ());
    exit (run_parent w ~max_kills ~min_delay ~max_delay)
  in
  Cmd.v
    (Cmd.info "parent"
       ~doc:"Spawn workers against a fresh image, killing them at random.")
    Term.(const run $ workload_term () $ max_kills $ min_delay $ max_delay)

let selftest_cmd =
  let run w =
    let w = { w with image = Filename.temp_file "nvram_runner" ".img" } in
    Sys.remove w.image;
    Printf.printf "selftest: image=%s ops=%d workers=%d\n%!" w.image w.ops
      w.workers;
    let code =
      run_parent ~min_kills:1 w ~max_kills:20 ~min_delay:0.1 ~max_delay:0.4
    in
    (try Sys.remove w.image with Sys_error _ -> ());
    if code = 0 then print_endline "selftest: OK";
    exit code
  in
  (* 500 ops outlast the first kill delay many times over, so kills land
     mid-run; the run fails if none did. *)
  Cmd.v
    (Cmd.info "selftest"
       ~doc:"End-to-end kill-based run on a temporary image (experiment E4).")
    Term.(const run $ workload_term ~ops:500 ())

let () =
  let doc = "Execute NVRAM CAS workloads with kill-based crash emulation." in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "nvram_runner" ~doc)
          [ selftest_cmd; parent_cmd; worker_cmd; verify_cmd ]))
