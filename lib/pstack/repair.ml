type event =
  | Truncated_tail of {
      stack : string;
      at : Nvram.Offset.t;
      frames_kept : int;
      corruption : Frame.corruption;
    }

exception
  Corrupt_stack of {
    stack : string;
    at : Nvram.Offset.t;
    reason : string;
  }

let pp_event fmt = function
  | Truncated_tail { stack; at; frames_kept; corruption } ->
      Format.fprintf fmt
        "%s: truncated corrupt tail at %d (%a); %d frame%s kept" stack
        (Nvram.Offset.to_int at) Frame.pp_corruption corruption frames_kept
        (if frames_kept = 1 then "" else "s")

let event_to_string e = Format.asprintf "%a" pp_event e

(* One truncation = one fault detected and repaired in place. *)
let note_truncation () =
  Obs.Counters.incr Obs.Probe.counters Faults_detected;
  Obs.Counters.incr Obs.Probe.counters Faults_repaired

let corrupt_stack ~stack ~at reason =
  raise (Corrupt_stack { stack; at; reason })
