(** A static-file HTTP/1.0 server in the spirit of the paper's Nginx
    workload: accept, parse the request line, respond with headers and
    sendfile(2) of the requested document, close.

    Both profiles serve the body with zero-copy sendfile: page-cache
    pages go to the NIC without a bounce copy. [sendfile_zero_copy =
    false] is the software baseline, which copies each chunk through a
    kernel buffer. *)

val port : int

val setup_docroot : Libc.t -> sizes:(string * int) list -> unit
(** Create /tmp/www and one file per (name, bytes). *)

val server : requests:int -> Libc.t -> int
(** Serve exactly [requests] connections, then exit. Charges a small
    per-request user-space cost (parsing, logging). Each worker runs its
    own epoll loop over the shared non-blocking listener. *)

val spawn : requests:int -> sizes:(string * int) list -> unit -> unit
(** Boot-side helper: spawn the server process with its docroot. *)
