(** Apply the paper's TCB methodology to this repository itself: the
    privileged framework (lib/core) plus the hardware models and
    simulator substrate it needs (lib/machine, lib/sim) form the TCB;
    the kernel services and workloads are outside it;
    analysis tooling is excluded like the Rust toolchain would be. *)

type entry = { library : string; loc : int; tcb : bool }

type report = { entries : entry list; total_loc : int; tcb_loc : int; relative : float }

val run : ?root:string -> unit -> report
(** Scans lib/<dir>/*.ml[i] under [root] (default: walk up from cwd until
    a dune-project is found). *)
