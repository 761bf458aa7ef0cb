(** One runner per workload, shared by the bench harness and the CLI.
    Each boots a fresh kernel under [profile], runs the workload to
    completion and returns its result (NaN, or [], if it never
    reported), so Stats, histograms, kprof and kspan cover that run. *)

val fio :
  ?after_boot:(unit -> unit) -> profile:Sim.Profile.t -> mbytes:int -> unit -> Fio.result
(** {!Fio.run} on /ext2/fio.dat. [after_boot] runs before the spawn: the
    chaos bench installs its fault schedule there, the smoke gate
    detaches probes. *)

val fio_fsync : profile:Sim.Profile.t -> mbytes:int -> float * int
(** {!Fio.run_fsync} on /ext2/fiof.dat: (MB/s, fsyncs). *)

val speedtest1 : profile:Sim.Profile.t -> size:int -> Speedtest1.result list

val with_host :
  profile:Sim.Profile.t -> default:'a -> (Aster.Kernel.host -> 'a ref -> unit) -> 'a
(** Boot, attach the host side of the tap, let the driver spawn the
    guest server and the host client, simulate, return what the driver
    deposited (initially [default]). *)

val nginx_rps : profile:Sim.Profile.t -> file:string -> requests:int -> float
(** [ab -c 32] fetching ["f4k"] or ["f64k"] from {!Mini_nginx}. *)

val redis_rps : profile:Sim.Profile.t -> op:string -> requests:int -> float
(** 16 clients issuing [op] after a 700-request RPUSH fill. *)

val c10k : conns:int -> rounds:int -> batch:int -> churn:int -> C10k.result
(** {!C10k} on the asterinas profile; raises [Failure] if the host
    driver does not finish. *)
