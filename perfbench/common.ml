(* Helpers shared by the three workload modules: seeded input
   generation, exact percentiles over recorded samples, host clocks. *)

let cycles_per_us = float_of_int Sim.Clock.cycles_per_us

let us_of_cycles c = Int64.to_float c /. cycles_per_us

let host_s () = Unix.gettimeofday ()

(* Monotonic host nanoseconds, for host-side spans shorter than a
   microsecond (the per-syscall host cost in the traced run). *)
let host_ns () = Monotonic_clock.now ()

(* One exponential inter-arrival gap of a unit-rate Poisson process;
   dividing by the offered rate gives seconds. *)
let exp_gap rng = -.log (1. -. Sim.Rng.float rng 1.)

let alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

let random_string rng n = String.init n (fun _ -> alnum.[Sim.Rng.int rng (String.length alnum)])

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng 256))

(* --- Exact percentiles (nearest rank) --- *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let rank n p = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n)))

(* Samples strictly above the p-th percentile's rank. *)
let beyond n p = n - rank n p

let pct s p = if Array.length s = 0 then nan else s.(rank (Array.length s) p - 1)

let median l = pct (sorted (Array.of_list l)) 50.

(* The highest of p50/p90/p99/p99.9 with ten samples beyond it; a
   percentile with fewer is just the maximum under another name. *)
let highest_pct s =
  List.fold_left
    (fun acc p -> if beyond (Array.length s) p >= 10 then Some p else acc)
    None [ 50.; 90.; 99.; 99.9 ]

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else find ()
    in
    let v = find () in
    close_in ic;
    v

let ratio a b = if b = 0. then 0. else a /. b

let fi = float_of_int

(* Workload constants, passed as [--set key=value] by run.py from
   workloads.json so the design record and the code cannot drift. *)
let params : (string, string) Hashtbl.t = Hashtbl.create 16

let param k =
  match Hashtbl.find_opt params k with Some v -> v | None -> failwith ("missing --set " ^ k)

let pf k = float_of_string (param k)

let pi k = int_of_string (param k)

(* Wrong outputs: every one fails its op; the first few are kept for
   the report. *)
let mismatches = ref 0

let mismatch_log : string list ref = ref []

let mismatch msg =
  incr mismatches;
  if List.length !mismatch_log < 5 then mismatch_log := msg :: !mismatch_log
