let counts : (int, int ref) Hashtbl.t = Hashtbl.create 64

let small : (int, int ref) Hashtbl.t = Hashtbl.create 8

let reset () =
  Hashtbl.reset counts;
  Hashtbl.reset small

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

let record ~nr = bump counts nr

(* ktrace rebase: the counters above stay, but entry/exit also feed the
   trace ring and the latency histograms. Neither charges virtual
   cycles, so instrumented runs time identically. *)

let enter ~nr =
  record ~nr;
  Sim.Trace.emit Sim.Trace.Syscall "enter" (fun () ->
      Printf.sprintf "nr=%d name=%s" nr (Syscall_nr.name nr))

let all_hist = Sim.Hist.site "syscall"

(* One site per nr, so an exit builds no "syscall.<name>" string and
   hashes nothing. *)
let nr_hists =
  Array.init Syscall_nr.table_size (fun nr -> Sim.Hist.site ("syscall." ^ Syscall_nr.name nr))

let exit_ ~nr ~ret ~cycles =
  let us = Sim.Clock.to_us cycles in
  Sim.Hist.observe_site all_hist us;
  if nr >= 0 && nr < Syscall_nr.table_size then Sim.Hist.observe_site nr_hists.(nr) us
  else Sim.Hist.observe ("syscall." ^ Syscall_nr.name nr) us;
  Sim.Trace.emit Sim.Trace.Syscall "exit" (fun () ->
      let result =
        if Int64.compare ret 0L < 0 then
          Printf.sprintf "err=%s" (Errno.name (Int64.to_int (Int64.neg ret)))
        else Printf.sprintf "ret=%Ld" ret
      in
      Printf.sprintf "nr=%d name=%s %s lat_us=%.3f" nr (Syscall_nr.name nr) result us)

let record_size ~nr ~size = if size <= 8 then bump small nr

let count ~nr = match Hashtbl.find_opt counts nr with Some r -> !r | None -> 0

let small_writes () =
  let get nr = match Hashtbl.find_opt small nr with Some r -> !r | None -> 0 in
  get Syscall_nr.pwrite64 + get Syscall_nr.write

let top n =
  Hashtbl.fold (fun nr r acc -> (Syscall_nr.name nr, !r) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.filteri (fun i _ -> i < n)
