type custom = ..

type state = Ready | Running | Blocked | Dead

type t = {
  tid : int;
  tname : string;
  mutable st : state;
  mutable running_flag : bool; (* Inv. 8 *)
  mutable cust : custom option;
  mutable nice_val : int;
  kstack : Kstack.t;
  mutable resume : resume option;
  (* --- kprof CPU accounting (observability only: never charges) --- *)
  mutable utime : int64; (* cycles accounted to user mode *)
  mutable stime : int64; (* cycles accounted to kernel mode *)
  mutable user_mode : bool; (* which bucket accrues right now *)
  mutable acct_mark : int; (* clock cycle at last accounting flush *)
  mutable nvcsw : int; (* voluntary context switches (blocked) *)
  mutable nivcsw : int; (* involuntary context switches (yielded) *)
  mutable runnable_at : int; (* enqueue cycle, -1 once dispatched *)
  mutable sdelay_sum : int64; (* total runqueue-wait cycles *)
  mutable sdelay_cnt : int; (* dispatches with a measured wait *)
  mutable sdelay_max : int64;
}

and resume = Start of (unit -> unit) | Cont of (unit, unit) Effect.Deep.continuation

exception Task_exit

type _ Effect.t += Suspend : unit Effect.t

let tid t = t.tid

let name t = t.tname

let is_running t = t.running_flag

let is_dead t = t.st = Dead

let custom t = t.cust

let set_custom t c = t.cust <- Some c

let nice t = t.nice_val

let set_nice t n = t.nice_val <- n

module type SCHEDULER = sig
  val enqueue : t -> unit
  val pick_next : unit -> t option
  val update_curr : unit -> unit
  val dequeue_curr : unit -> unit
end

let sched : (module SCHEDULER) option ref = ref None

let cur : t option ref = ref None

(* ktrace names the task that emitted each record; outside task context
   records attribute to the idle loop. *)
let () =
  Sim.Trace.set_task_provider (fun () ->
      match !cur with Some t -> Printf.sprintf "%s/%d" t.tname t.tid | None -> "idle/0")

let last_ran : int ref = ref (-1)

let next_tid = ref 0

let live = ref 0

(* All live tasks, for observability scans (never for scheduling). The
   hung-task watchdog's ctx field is the longest time any Ready task
   has been waiting on the runqueue, computed on demand at sched
   tracepoints. *)
let all_tasks : (int, t) Hashtbl.t = Hashtbl.create 64

let ns_of_cycles c = Int64.of_float (Sim.Clock.to_us c *. 1000.)

let max_runnable_wait_ns () =
  let now = Sim.Clock.cycles () in
  Hashtbl.fold
    (fun _ t acc ->
      if t.st = Ready && t.runnable_at >= 0 then begin
        let d = ns_of_cycles (Int64.of_int (Int.max 0 (now - t.runnable_at))) in
        if Int64.compare d acc > 0 then d else acc
      end
      else acc)
    all_tasks 0L

(* --- CPU accounting ---

   Virtual time only moves through [Sim.Cost] charges and event jumps,
   so accounting is a matter of marks: while a task runs, the cycles
   between its dispatch mark and the next flush belong to it, split
   into utime/stime by the [user_mode] flag the user-return boundary
   flips. Whole-system totals accumulate alongside so /proc/stat can
   report user/system/idle without walking dead tasks. *)

let total_utime = ref 0L

let total_stime = ref 0L

let switch_count = ref 0

let acct_flush t =
  let now = Sim.Clock.cycles () in
  let d = now - t.acct_mark in
  if d > 0 then begin
    let d = Int64.of_int d in
    if t.user_mode then begin
      t.utime <- Int64.add t.utime d;
      total_utime := Int64.add !total_utime d
    end
    else begin
      t.stime <- Int64.add t.stime d;
      total_stime := Int64.add !total_stime d
    end
  end;
  t.acct_mark <- now

(* utime/stime including the live span of a currently-running task. *)
let cpu_times t =
  if t.running_flag then begin
    let d = Int64.of_int (Int.max 0 (Sim.Clock.cycles () - t.acct_mark)) in
    if t.user_mode then (Int64.add t.utime d, t.stime) else (t.utime, Int64.add t.stime d)
  end
  else (t.utime, t.stime)

let ctx_switches t = (t.nvcsw, t.nivcsw)

let sched_delay t = (t.sdelay_cnt, t.sdelay_sum, t.sdelay_max)

let aggregate_cpu_times () = (!total_utime, !total_stime)

let context_switches () = !switch_count

(* The user/kernel boundary, called by the user-return loop: flush the
   elapsed span into the old bucket, then flip. *)
let account_user_entry () =
  match !cur with
  | Some t ->
    acct_flush t;
    t.user_mode <- true
  | None -> ()

let account_kernel_entry () =
  match !cur with
  | Some t ->
    acct_flush t;
    t.user_mode <- false
  | None -> ()

let idle_hook : (unit -> unit) ref = ref (fun () -> ())

let inject_scheduler m =
  match !sched with
  | Some _ -> Panic.panic "Task.inject_scheduler: a scheduler is already registered"
  | None -> sched := Some m

let scheduler () =
  match !sched with
  | Some m -> m
  | None -> Panic.panic "Task: no scheduler injected"

let inject_fifo_scheduler () =
  let q : t Queue.t = Queue.create () in
  let module Fifo = struct
    let enqueue t = Queue.push t q

    let pick_next () = Queue.take_opt q

    let update_curr () = ()

    let dequeue_curr () = ()
  end in
  inject_scheduler (module Fifo)

let reset () =
  sched := None;
  cur := None;
  last_ran := -1;
  next_tid := 0;
  live := 0;
  Hashtbl.reset all_tasks;
  total_utime := 0L;
  total_stime := 0L;
  switch_count := 0;
  idle_hook := (fun () -> ());
  Atomic_mode.reset ()

let current_opt () = !cur

let current () =
  match !cur with
  | Some t -> t
  | None -> Panic.panic "Task.current: not in task context"

let enqueue_ready t =
  let (module S) = scheduler () in
  t.st <- Ready;
  (* Runqueue-wait starts now; dispatch measures the delta. *)
  t.runnable_at <- Sim.Clock.cycles ();
  S.enqueue t

let spawn ?(name = "task") body =
  incr next_tid;
  incr live;
  let t =
    {
      tid = !next_tid;
      tname = name;
      st = Ready;
      running_flag = false;
      cust = None;
      nice_val = 0;
      kstack = Kstack.create ();
      resume = Some (Start body);
      utime = 0L;
      stime = 0L;
      user_mode = false;
      acct_mark = 0;
      nvcsw = 0;
      nivcsw = 0;
      runnable_at = -1;
      sdelay_sum = 0L;
      sdelay_cnt = 0;
      sdelay_max = 0L;
    }
  in
  Hashtbl.replace all_tasks t.tid t;
  enqueue_ready t;
  t

let wake t =
  match t.st with
  | Blocked ->
    Sim.Trace.emit Sim.Trace.Sched "wakeup" (fun () ->
        Printf.sprintf "task=%s/%d" t.tname t.tid);
    enqueue_ready t;
    (* The wakeup edge hands a completion's span back to the sleeping
       task: if this wake happens under an IRQ/softirq wake context,
       the delivery leg is recorded on the woken task's span. *)
    Sim.Span.on_wake ~tid:t.tid;
    Sim.Trace.fire Sim.Trace.P_sched_wakeup (fun () ->
        [| Int64.of_int t.tid; ns_of_cycles (Sim.Clock.now ()); max_runnable_wait_ns () |])
  | Ready | Running | Dead -> ()

let exit () = raise Task_exit

let kill t =
  if t.st <> Dead then begin
    t.st <- Dead;
    decr live;
    Hashtbl.remove all_tasks t.tid;
    Kstack.destroy t.kstack
  end

(* Marks the dispatched task finished; runs inside the handler when the
   task body returns or raises. *)
let on_death t =
  acct_flush t;
  if t.st <> Dead then begin
    t.st <- Dead;
    decr live;
    Hashtbl.remove all_tasks t.tid;
    Kstack.destroy t.kstack
  end;
  t.running_flag <- false;
  cur := None;
  Sim.Span.on_task_exit t.tid;
  Sim.Prof.switch_idle ()

let handler (t : t) : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> on_death t);
    exnc =
      (fun e ->
        on_death t;
        match e with
        | Task_exit -> ()
        | Panic.Service_failure { msg; errno } ->
          (* Containment backstop: a service failure that nobody above
             translated kills only this task. Invariant violations
             (Kernel_panic) still unwind the whole simulation. *)
          Sim.Stats.incr "task.contained_failure";
          Logs.debug (fun m ->
              m "task %s (tid %d) died of contained failure (errno %d): %s" t.tname t.tid
                errno msg)
        | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Suspend ->
          Some
            (fun (k : (a, unit) Effect.Deep.continuation) ->
              (* The task suspends: record where to resume, hand control
                 back to the dispatch loop. *)
              acct_flush t;
              t.resume <- Some (Cont k);
              t.running_flag <- false;
              cur := None;
              Sim.Span.on_deschedule ();
              Sim.Prof.switch_idle ())
        | _ -> None);
  }

let dispatch t =
  Sim.Cost.charge_safety (fun s -> s.Sim.Profile.running_flag);
  if t.running_flag then Panic.panic "Inv. 8 violated: task is already running on another CPU";
  if t.st <> Dead then begin
    (* Profile attribution follows the incoming task from here on: the
       switch cost below is charged to the task being switched in, as
       is its accounting mark. *)
    Sim.Prof.switch_to (Printf.sprintf "%s/%d" t.tname t.tid);
    t.acct_mark <- Sim.Clock.cycles ();
    (* Runqueue wait: from the enqueue that made the task runnable to
       this dispatch. Fed to the sched.delay histogram (microseconds)
       and the per-task schedstat totals; costs nothing in virtual
       time. *)
    let own_wait_ns = ref 0L in
    let span_waited = ref 0L in
    if t.runnable_at >= 0 then begin
      let d = Int64.of_int (Int.max 0 (Sim.Clock.cycles () - t.runnable_at)) in
      t.runnable_at <- -1;
      t.sdelay_sum <- Int64.add t.sdelay_sum d;
      t.sdelay_cnt <- t.sdelay_cnt + 1;
      if Int64.compare d t.sdelay_max > 0 then t.sdelay_max <- d;
      own_wait_ns := ns_of_cycles d;
      span_waited := d;
      Sim.Hist.observe "sched.delay" (Sim.Clock.to_us d)
    end;
    (* Span bookkeeping before the switch cost below, so those cycles
       attribute on-CPU to the incoming task's span. *)
    Sim.Span.on_dispatch ~tid:t.tid ~waited:!span_waited;
    incr switch_count;
    (* Re-dispatching the task that just ran (a solo yield) skips the
       register save/restore and cache refill of a real switch. *)
    if !last_ran = t.tid then Sim.Cost.charge 40
    else Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.context_switch;
    Sim.Trace.emit Sim.Trace.Sched "switch" (fun () ->
        Printf.sprintf "prev=%d next=%s/%d" !last_ran t.tname t.tid);
    (* max_wait_ns covers the task being switched in (it just finished
       waiting) as well as everything still on the runqueue, so a
       starved task is visible at the very switch that rescues it. *)
    Sim.Trace.fire Sim.Trace.P_sched_switch (fun () ->
        let queued = max_runnable_wait_ns () in
        let w = if Int64.compare !own_wait_ns queued > 0 then !own_wait_ns else queued in
        [| Int64.of_int !last_ran; Int64.of_int t.tid; ns_of_cycles (Sim.Clock.now ()); w |]);
    last_ran := t.tid;
    t.st <- Running;
    t.running_flag <- true;
    cur := Some t;
    match t.resume with
    | Some (Start body) ->
      t.resume <- None;
      Effect.Deep.match_with body () (handler t)
    | Some (Cont k) ->
      t.resume <- None;
      Effect.Deep.continue k ()
    | None ->
      Panic.panic "Task.dispatch: task has no continuation"
  end

let suspend () = Effect.perform Suspend

let yield_now () =
  let t = current () in
  (* In the cooperative simulator a yield is the preemption point, so
     it counts as the involuntary switch (Linux: nivcsw). *)
  t.nivcsw <- t.nivcsw + 1;
  let (module S) = scheduler () in
  S.update_curr ();
  enqueue_ready t;
  suspend ()

let block () =
  Atomic_mode.assert_sleepable "Task.block";
  let t = current () in
  t.nvcsw <- t.nvcsw + 1;
  let (module S) = scheduler () in
  S.update_curr ();
  S.dequeue_curr ();
  t.st <- Blocked;
  suspend ();
  if (current ()).st = Dead then raise Task_exit

let sleep_cycles n =
  Atomic_mode.assert_sleepable "Task.sleep";
  let t = current () in
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.timer_program;
  ignore (Sim.Events.schedule_after n (fun () -> wake t));
  block ()

let sleep_us x = sleep_cycles (Sim.Clock.us x)

let on_idle f = idle_hook := f

let rec loop stop =
  if not (stop ()) then begin
    ignore (Sim.Events.run_due ());
    let (module S) = scheduler () in
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.sched_pick;
    match S.pick_next () with
    | Some t ->
      if t.st = Dead then loop stop
      else begin
        dispatch t;
        loop stop
      end
    | None ->
      !idle_hook ();
      (* Nothing runnable: let the machine make progress. *)
      if Sim.Events.run_next () then loop stop else ()
  end

let run () = loop (fun () -> false)

let run_until p = loop p

let live_tasks () = !live
