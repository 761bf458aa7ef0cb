(* Log-bucketed (HDR-style) histograms. One octave is split into
   [subdiv] sub-buckets, so the relative width of any bucket — and
   therefore the worst-case relative error of a percentile estimate —
   is bounded by 1/subdiv. Each bucket tracks count and sum, so the
   reported percentile is the mean of the bucket it lands in: exact for
   distributions that never split a bucket (constant, two-point),
   within bucket width otherwise. *)

let subdiv = 16

(* frexp exponents from e_min to e_max cover ~3e-5 .. ~3e14: sub-cycle
   latencies up to ~27 hours of virtual time at 3 GHz. *)
let e_min = -15

let e_max = 49

let nbuckets = 2 + ((e_max - e_min) * subdiv) (* + zero and overflow buckets *)

type t = {
  mutable count : int;
  mutable sum : float;
  mutable max_v : float;
  mutable min_v : float;
  counts : int array;
  sums : float array;
}

let create () =
  {
    count = 0;
    sum = 0.;
    max_v = neg_infinity;
    min_v = infinity;
    counts = Array.make nbuckets 0;
    sums = Array.make nbuckets 0.;
  }

let bucket_of v =
  if v <= 0. then 0
  else begin
    let m, e = Float.frexp v in
    if e < e_min then 0
    else if e > e_max then nbuckets - 1
    else begin
      (* m is in [0.5, 1): spread it over subdiv sub-buckets. *)
      let sub = int_of_float ((m -. 0.5) *. 2. *. float_of_int subdiv) in
      1 + (((e - e_min) * subdiv) + min sub (subdiv - 1))
    end
  end

let record t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v > t.max_v then t.max_v <- v;
  if v < t.min_v then t.min_v <- v;
  let i = bucket_of v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.sums.(i) <- t.sums.(i) +. v

let count t = t.count

let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

let max_value t = if t.count = 0 then 0. else t.max_v

let min_value t = if t.count = 0 then 0. else t.min_v

(* An empty histogram has no percentiles: return [None] rather than a
   made-up 0.0 so table renderers must decide how to show the absence
   (they print "-"). Callers that have already checked [count t > 0]
   can use [percentile_exn]. *)
let percentile t p =
  if t.count = 0 then None
  else begin
    let p = Float.min 100. (Float.max 0. p) in
    let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int t.count))) in
    let rec walk i cum =
      if i >= nbuckets then t.max_v
      else begin
        let cum = cum + t.counts.(i) in
        if cum >= rank then t.sums.(i) /. float_of_int t.counts.(i) else walk (i + 1) cum
      end
    in
    Some (walk 0 0)
  end

let percentile_exn t p =
  match percentile t p with
  | Some v -> v
  | None -> invalid_arg "Hist.percentile_exn: empty histogram"

(* --- Named registry, mirroring Stats counters --- *)

let table : (string, t) Hashtbl.t = Hashtbl.create 32

(* Bumped by [reset]; a [site] re-resolves its histogram when it sees a
   new epoch, so cached handles never record into a dropped one. *)
let epoch = ref 0

let reset () =
  Hashtbl.reset table;
  incr epoch

let named name =
  match Hashtbl.find_opt table name with
  | Some h -> h
  | None ->
    let h = create () in
    Hashtbl.add table name h;
    h

let observe name v = record (named name) v

type site = { sname : string; mutable seen : int; mutable h : t }

let unresolved = create ()

let site sname = { sname; seen = -1; h = unresolved }

let observe_site s v =
  if s.seen <> !epoch then begin
    s.h <- named s.sname;
    s.seen <- !epoch
  end;
  record s.h v

let find name = Hashtbl.find_opt table name

let all () =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let by_prefix prefix =
  List.filter (fun (k, _) -> String.starts_with ~prefix k) (all ())

let summary_line name t =
  let cell p =
    match percentile t p with
    | Some v -> Printf.sprintf "%10.3f" v
    | None -> Printf.sprintf "%10s" "-"
  in
  let max_cell =
    if t.count = 0 then Printf.sprintf "%10s" "-"
    else Printf.sprintf "%10.3f" (max_value t)
  in
  Printf.sprintf "%-28s %8d %s %s %s %s" name t.count (cell 50.) (cell 90.) (cell 99.)
    max_cell

let summary_header =
  Printf.sprintf "%-28s %8s %10s %10s %10s %10s" "name" "count" "p50" "p90" "p99" "max"
