(** An in-memory key-value server speaking a compact RESP-like protocol,
    standing in for the paper's Redis workload. The server is a
    single-task epoll event loop (level-triggered conns, non-blocking
    accept4-drained listener). The data structures cover every command redis-benchmark exercises in
    Table 11: strings, counters, lists, sets, hashes, sorted sets.

    Protocol: one request per line, space separated; replies are
    "+str", ":int", "$<payload>", or "*n" followed by n "$" lines. *)

val port : int

val spawn : unit -> unit
(** Spawn the server process. *)

val command_names : string list
(** The Table 11 operations, in paper order. *)
