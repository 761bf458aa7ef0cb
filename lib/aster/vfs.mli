(** Virtual file system: inode abstraction, mount table, dentry cache,
    and path resolution.

    Path walking charges per component; with the profile's [rcu_walk]
    flag (Linux) a dcache hit uses the cheap lock-free cost, otherwise
    the lock-walk cost — the mechanism behind the paper's open/stat gap
    (§6.1.1). *)

type kind = Reg | Dir | Fifo | Sock | Chr | Lnk

type inode = {
  ino : int;
  fsname : string;
  mutable kind : kind;
  mutable mode : int;
  mutable nlink : int;
  mutable size : int;
  mutable atime_ns : int64;
  mutable mtime_ns : int64;
  mutable ctime_ns : int64;
  ops : ops;
  mutable priv : priv;
}

and priv = ..

and ops = {
  lookup : inode -> string -> inode option;
  create : inode -> string -> kind -> mode:int -> (inode, int) result;
  unlink : inode -> string -> (unit, int) result;
  readdir : inode -> (string * inode) list;
  read : inode -> pos:int -> buf:bytes -> boff:int -> len:int -> (int, int) result;
  write : inode -> pos:int -> buf:bytes -> boff:int -> len:int -> (int, int) result;
  truncate : inode -> int -> (unit, int) result;
  fsync : inode -> (unit, int) result;
  rename : inode -> string -> inode -> string -> (unit, int) result;
  link : inode -> string -> inode -> (unit, int) result;
  symlink_target : inode -> string option;
  set_symlink : inode -> string -> (unit, int) result;
  open_file : inode -> inode;
      (** open(2) reads and writes through the inode this returns, so a
          file system can give each open file its own state (procfs
          snapshots). The default returns the inode itself. *)
}

val default_ops : ops
(** Every operation fails with the appropriate errno; file systems
    override what they support. *)

val make_inode :
  fsname:string -> kind:kind -> ?mode:int -> ops:ops -> unit -> inode
(** Allocates a fresh inode number and stamps times; also charges a
    kmalloc for the inode object when a global heap is injected. *)

val touch_mtime : inode -> unit
val touch_atime : inode -> unit

(** {2 Mounts and resolution} *)

val reset : unit -> unit
(** Clear mounts and the dentry cache (new boot). *)

val mount_root : inode -> unit
val mount : string -> inode -> unit
(** Mount a filesystem root at an absolute path. *)

val mounts : unit -> (string * inode) list

type resolved = { inode : inode; path : string }

val resolve : ?cwd:resolved -> string -> (resolved, int) result
(** Follow the path (and symlinks, bounded depth) to an inode. *)

val resolve_parent : ?cwd:resolved -> string -> (resolved * string, int) result
(** Resolve all but the final component; returns the parent and the leaf
    name. Fails with EINVAL on "/" or an empty leaf. *)

val root : unit -> resolved

val dcache_invalidate : inode -> string -> unit
(** Drop the dentry for (parent, name) after unlink/rename. *)

val dcache_entries : unit -> int
val dcache_hits : unit -> int
