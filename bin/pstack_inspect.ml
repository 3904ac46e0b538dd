(* Inspect a persistent image file: superblock, task table, decoded worker
   stacks (each frame with its checksum status), heap map.

   Usage:
     dune exec bin/pstack_inspect.exe -- /tmp/nvram_runner.img
     dune exec bin/pstack_inspect.exe -- --size 2097152 image.img
     dune exec bin/pstack_inspect.exe -- --scrub image.img
     dune exec bin/pstack_inspect.exe -- --scrub --repair image.img *)

let inspect path size scrub repair =
  let size =
    match size with
    | Some n -> n
    | None -> (Unix.stat path).Unix.st_size
  in
  if size = 0 then failwith "empty image";
  let backend = Nvram.Backend.file ~path ~size () in
  let pmem = Nvram.Pmem.create ~backend ~size () in
  let status =
    if scrub || repair then begin
      (* The scrub path never assumes the image attaches: it is the triage
         tool for exactly the images [pp_image] would raise on. *)
      let result = Runtime.Scrub.run ~repair pmem in
      print_endline (Runtime.Scrub.to_string result);
      if repair then Nvram.Pmem.drain_all pmem;
      if Runtime.Scrub.is_clean result then 0 else 1
    end
    else begin
      Format.printf "%a@." Runtime.System.pp_image pmem;
      0
    end
  in
  Nvram.Backend.close backend;
  exit status

open Cmdliner

let path =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"IMAGE" ~doc:"Persistent image file to inspect.")

let size =
  Arg.(
    value
    & opt (some int) None
    & info [ "size" ] ~docv:"BYTES"
        ~doc:"Device size (defaults to the file size).")

let scrub =
  Arg.(
    value & flag
    & info [ "scrub" ]
        ~doc:"Verify every checksummed structure of the image instead of \
              printing it; exit 0 iff clean.")

let repair =
  Arg.(
    value & flag
    & info [ "repair" ]
        ~doc:"With $(b,--scrub): also repair what the recovery paths know \
              how to repair (rewrite rotten heap arena headers, \
              truncate torn stack tails), writing the result back to the image.")

let cmd =
  Cmd.v
    (Cmd.info "pstack_inspect"
       ~doc:"Decode and print the contents of a system image.")
    Term.(const inspect $ path $ size $ scrub $ repair)

let () = exit (Cmd.eval cmd)
