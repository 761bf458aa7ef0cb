(* What one repetition of a workload measured. *)

type vmetric = { name : string; value : float; unit_ : string; samples : int }

type rep = {
  setup_s : float; (* host: input generation, boot, server spawn, preload *)
  host : Hostm.delta; (* host cost of the measured phase *)
  laps : (float * float) array;
      (* per step of the measured phase: host seconds, and the reference
         time around it (Calib) *)
  ops : int; (* ops completed correctly in the measured phase *)
  attempted : int;
  failed : int;
  virtual_s : float; (* virtual length of the measured phase *)
  v : vmetric list; (* the virtual end-to-end metrics *)
  vkey : Digest.t; (* digest of every virtual result: end cycle, latencies, rates *)
  gen_lag_us_max : float;
  backlog_end : int;
  layers : (string * float) list; (* per-layer metrics; traced reps only *)
  steps : string list; (* one line per step, for the printed report *)
}

let vm name value unit_ samples = { name; value; unit_; samples }
