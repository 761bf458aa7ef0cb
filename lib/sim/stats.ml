let table : (string, int ref) Hashtbl.t = Hashtbl.create 64

let reset () = Hashtbl.reset table

let counter name =
  match Hashtbl.find_opt table name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add table name r;
    r

let incr name = Stdlib.incr (counter name)

let add name n =
  let r = counter name in
  r := !r + n

let get name = match Hashtbl.find_opt table name with Some r -> !r | None -> 0

let counters () =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let by_prefix prefix =
  List.filter (fun (k, _) -> String.starts_with ~prefix k) (counters ())

let sum_prefix prefix = List.fold_left (fun a (_, n) -> a + n) 0 (by_prefix prefix)

(* The chaos-observability quartet: how many faults were injected, how
   many operations were retried because of them, how many ultimately
   recovered, and how many were given up on. Degradation paths report
   under the degrade.{retried,recovered,gave_up}.* prefixes, so a new
   site is in the quartet the moment it bumps its counter — no list
   here to keep in sync. *)
let fault_report () =
  [
    ("injected", sum_prefix "fault.injected.");
    ("retried", sum_prefix "degrade.retried.");
    ("recovered", sum_prefix "degrade.recovered.");
    ("gave_up", sum_prefix "degrade.gave_up.");
  ]

let geomean = function
  | [] -> 0.
  | xs ->
    let sum = List.fold_left (fun acc x -> acc +. log x) 0. xs in
    exp (sum /. float_of_int (List.length xs))
