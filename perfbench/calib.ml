(* Host speed reference. Other tenants of a shared host slow this
   process by 20-40% for minutes at a time, which no amount of
   repetition inside one run averages out. So each measured step is
   paired with a short fixed workload in plain OCaml, independent of
   the simulator (a change to the program under test cannot move it),
   and the step's host time is scaled to what it would have been had
   the reference run in [nominal_s]. *)

(* Reference time on an unloaded host; fixes the scale of the reported
   rates, which read as host ops per second on such a host. *)
let nominal_s = 0.010

(* The simulator slows less than the reference does: regressing the log
   raw rate of a repetition on the log of the reference time around it,
   over 246 repetitions on a shared host, gives 0.65-0.77 for
   kv-persist and 0.67-0.73 for db-txn. Scaling by the full ratio would
   over-correct, and the slower the host the higher the rate would
   read. *)
let elasticity = 0.7

(* A host time measured while the reference took [ref_s], on the
   nominal host. *)
let scale d ~ref_s = d *. ((nominal_s /. ref_s) ** elasticity)

(* Small allocations, hashing, short lists and byte copies: the mix the
   simulator's hot paths are made of. *)
let work () =
  let h = Hashtbl.create 4096 in
  let b = Bytes.create 8192 in
  let acc = ref 0 in
  for i = 0 to 29_999 do
    let k = string_of_int (i land 4095) in
    Hashtbl.replace h k i;
    acc := !acc + Hashtbl.find h k;
    Bytes.blit b 0 b 4096 2048;
    acc := !acc + List.length (List.init 8 (fun j -> i + j))
  done;
  !acc

(* Host seconds the reference takes now. *)
let sample () =
  let t0 = Common.host_s () in
  ignore (Sys.opaque_identity (work ()));
  Common.host_s () -. t0
