type t = {
  rng : Rng.t;
  probs : (string, float) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  mutable log_rev : string list;
  mutable nlog : int;
}

let plane : t option ref = ref None

let armed = ref false

(* Deterministic one-shot triggers, independent of the probability
   plane: [set_trigger site ~after:k] makes the k-th [countdown site]
   call fire (0-based, so [~after:0] fires on the very first call).
   Used to enumerate crash points exactly — no randomness involved. *)
let triggers : (string, int ref) Hashtbl.t = Hashtbl.create 4

let set_trigger site ~after =
  if after < 0 then invalid_arg "Fault.set_trigger: negative count";
  Hashtbl.replace triggers site (ref after)

let clear_trigger site = Hashtbl.remove triggers site

(* FNV-1a over the site name: a stable int64 key so probe programs can
   aggregate per site through the chaos_inject attach point. *)
let site_id site =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    site;
  Int64.shift_right_logical !h 1 (* keep it non-negative for map keys *)

(* Consulted once per persisted sector: with no trigger armed it must
   not hash the site. A fired trigger is removed, so it reads as
   unarmed from then on. *)
let countdown site =
  Hashtbl.length triggers > 0
  &&
  match Hashtbl.find_opt triggers site with
  | None -> false
  | Some r ->
    if !r = 0 then begin
      Hashtbl.remove triggers site;
      Stats.incr ("fault.injected." ^ site);
      Trace.emit Trace.Chaos "trigger" (fun () -> Printf.sprintf "site=%s" site);
      Trace.fire Trace.P_chaos_inject (fun () -> [| site_id site; 1L |]);
      true
    end
    else begin
      decr r;
      false
    end

let configure ~seed sites =
  let probs = Hashtbl.create 16 in
  List.iter
    (fun (site, p) -> if p > 0. then Hashtbl.replace probs site (min p 1.))
    sites;
  plane :=
    Some { rng = Rng.create seed; probs; counts = Hashtbl.create 16; log_rev = []; nlog = 0 };
  armed := true

let disable () = armed := false

let reset () =
  plane := None;
  armed := false;
  Hashtbl.reset triggers

let enabled () = !armed && !plane <> None

let prob t site = match Hashtbl.find_opt t.probs site with Some p -> p | None -> 0.

let active site =
  match !plane with Some t when !armed -> prob t site > 0. | Some _ | None -> false

let record t site =
  (match Hashtbl.find_opt t.counts site with
  | Some r -> incr r
  | None -> Hashtbl.add t.counts site (ref 1));
  t.nlog <- t.nlog + 1;
  t.log_rev <- Printf.sprintf "%Ld %s #%d" (Clock.now ()) site t.nlog :: t.log_rev;
  Stats.incr ("fault.injected." ^ site);
  Trace.emit Trace.Chaos "inject" (fun () -> Printf.sprintf "site=%s n=%d" site t.nlog);
  Trace.fire Trace.P_chaos_inject (fun () -> [| site_id site; Int64.of_int t.nlog |])

let roll site =
  match !plane with
  | Some t when !armed ->
    let p = prob t site in
    (* Unconfigured sites must not consume randomness: schedules stay
       stable when new sites appear elsewhere in the tree. *)
    if p <= 0. then false
    else begin
      let fire = Rng.float t.rng 1.0 < p in
      if fire then record t site;
      fire
    end
  | Some _ | None -> false

let delay_cycles site ~max_cycles =
  if max_cycles <= 0 then 0
  else if roll site then
    match !plane with
    | Some t -> 1 + Rng.int t.rng max_cycles
    | None -> 0
  else 0

let burst site ~max =
  if max <= 0 then 0
  else if roll site then
    match !plane with Some t -> 1 + Rng.int t.rng max | None -> 0
  else 0

let injected site =
  match !plane with
  | Some t -> ( match Hashtbl.find_opt t.counts site with Some r -> !r | None -> 0)
  | None -> 0

let total_injected () = match !plane with Some t -> t.nlog | None -> 0

let log () = match !plane with Some t -> List.rev t.log_rev | None -> []

let summary () =
  match !plane with
  | None -> []
  | Some t ->
    Hashtbl.fold (fun site r acc -> (site, !r) :: acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
