type t = { mutable q : Task.t list }

let create () = { q = [] }

let sleep wq =
  Atomic_mode.assert_sleepable "WaitQueue.sleep";
  let t = Task.current () in
  wq.q <- wq.q @ [ t ];
  Task.block ();
  (* Timeout paths may leave us in the list; drop stale entries. *)
  wq.q <- List.filter (fun w -> Task.tid w <> Task.tid t) wq.q

let sleep_until wq cond =
  while not (cond ()) do
    sleep wq
  done

let rec wake_one wq =
  match wq.q with
  | [] -> false
  | t :: rest ->
    wq.q <- rest;
    if Task.is_dead t then wake_one wq
    else begin
      Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.wakeup;
      Task.wake t;
      true
    end

let wake_all wq =
  let n = ref 0 in
  while wake_one wq do
    incr n
  done;
  !n

let sleep_until_deadline wq ~deadline cond =
  (* A user-supplied timeout can put the deadline past the event
     queue's horizon (max_int cycles, decades of virtual time); such a
     deadline is never reached, so saturate it there. *)
  let deadline = Int64.min deadline (Int64.of_int max_int) in
  cond ()
  || Int64.compare (Sim.Clock.now ()) deadline < 0
     &&
     let fired = ref false in
     let ev = Sim.Events.schedule_at deadline (fun () -> fired := true; ignore (wake_all wq : int)) in
     let rec go () = sleep wq; cond () || ((not !fired) && go ()) in
     let held = go () in
     Sim.Events.cancel ev;
     held

let waiters wq = List.length wq.q
