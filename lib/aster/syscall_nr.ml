let read = 0
let write = 1
let open_ = 2
let close = 3
let stat = 4
let fstat = 5
let lstat = 6
let poll = 7
let lseek = 8
let mmap = 9
let mprotect = 10
let munmap = 11
let brk = 12
let ioctl = 16
let pread64 = 17
let pwrite64 = 18
let readv = 19
let writev = 20
let access = 21
let pipe = 22
let sched_yield = 24
let dup = 32
let dup2 = 33
let nanosleep = 35
let getpid = 39
let sendfile = 40
let socket = 41
let connect = 42
let accept = 43
let sendto = 44
let recvfrom = 45
let shutdown = 48
let bind = 49
let listen = 50
let getsockname = 51
let socketpair = 53
let setsockopt = 54
let getsockopt = 55
let fork = 57
let execve = 59
let exit = 60
let wait4 = 61
let kill = 62
let uname = 63
let fcntl = 72
let flock = 73
let fsync = 74
let fdatasync = 75
let truncate = 76
let ftruncate = 77
let getdents = 78
let getcwd = 79
let chdir = 80
let rename = 82
let mkdir = 83
let rmdir = 84
let creat = 85
let link = 86
let unlink = 87
let symlink = 88
let readlink = 89
let chmod = 90
let chown = 92
let umask = 95
let gettimeofday = 96
let getrlimit = 97
let getrusage = 98
let times = 100
let getuid = 102
let getgid = 104
let geteuid = 107
let getegid = 108
let getppid = 110
let setsid = 112
let gettid = 186
let time = 201
let getdents64 = 217
let clock_gettime = 228
let clock_nanosleep = 230
let exit_group = 231
let openat = 257
let mkdirat = 258
let newfstatat = 262
let unlinkat = 263
let renameat = 264
let epoll_wait = 232
let epoll_ctl = 233
let accept4 = 288
let epoll_create1 = 291
let pipe2 = 293
let getrandom = 318
let rt_sigaction = 13
let rt_sigprocmask = 14
let rt_sigpending = 127
let mknod = 133
let statfs = 137
let fchdir = 81
let sync = 162
let dup3 = 292

(* bpf(2)-lite probe surface: probe_load sits on Linux's bpf slot (321)
   since it plays the same role; probe_read takes the adjacent 322. *)
let probe_load = 321
let probe_read = 322

(* kspan request boundaries: applications bracket a logical request
   (one redis command, one HTTP request) so the span covers it instead
   of each syscall. Adjacent to the probe surface. *)
let span_begin = 323
let span_end = 324

let named =
  [
    (read, "read"); (write, "write"); (open_, "open"); (close, "close"); (stat, "stat");
    (fstat, "fstat"); (lstat, "lstat"); (poll, "poll"); (lseek, "lseek"); (mmap, "mmap");
    (mprotect, "mprotect"); (munmap, "munmap"); (brk, "brk"); (ioctl, "ioctl");
    (pread64, "pread64"); (pwrite64, "pwrite64"); (readv, "readv"); (writev, "writev");
    (access, "access"); (pipe, "pipe"); (sched_yield, "sched_yield"); (dup, "dup");
    (dup2, "dup2"); (nanosleep, "nanosleep"); (getpid, "getpid"); (sendfile, "sendfile");
    (socket, "socket"); (connect, "connect"); (accept, "accept"); (sendto, "sendto");
    (recvfrom, "recvfrom"); (shutdown, "shutdown"); (bind, "bind"); (listen, "listen");
    (getsockname, "getsockname"); (socketpair, "socketpair"); (setsockopt, "setsockopt");
    (getsockopt, "getsockopt"); (fork, "fork"); (execve, "execve"); (exit, "exit");
    (wait4, "wait4"); (kill, "kill"); (uname, "uname"); (fcntl, "fcntl"); (flock, "flock");
    (fsync, "fsync"); (fdatasync, "fdatasync"); (truncate, "truncate");
    (ftruncate, "ftruncate"); (getdents, "getdents"); (getcwd, "getcwd"); (chdir, "chdir");
    (rename, "rename"); (mkdir, "mkdir"); (rmdir, "rmdir"); (creat, "creat"); (link, "link");
    (unlink, "unlink"); (symlink, "symlink"); (readlink, "readlink"); (chmod, "chmod");
    (chown, "chown"); (umask, "umask"); (gettimeofday, "gettimeofday");
    (getrlimit, "getrlimit"); (getrusage, "getrusage"); (times, "times"); (getuid, "getuid");
    (getgid, "getgid");
    (geteuid, "geteuid"); (getegid, "getegid"); (getppid, "getppid"); (setsid, "setsid");
    (gettid, "gettid"); (time, "time"); (getdents64, "getdents64");
    (clock_gettime, "clock_gettime"); (clock_nanosleep, "clock_nanosleep");
    (exit_group, "exit_group"); (openat, "openat"); (mkdirat, "mkdirat");
    (newfstatat, "newfstatat"); (unlinkat, "unlinkat"); (renameat, "renameat");
    (epoll_wait, "epoll_wait"); (epoll_ctl, "epoll_ctl"); (accept4, "accept4");
    (epoll_create1, "epoll_create1");
    (pipe2, "pipe2"); (getrandom, "getrandom"); (rt_sigaction, "rt_sigaction");
    (rt_sigprocmask, "rt_sigprocmask"); (rt_sigpending, "rt_sigpending"); (mknod, "mknod");
    (statfs, "statfs"); (fchdir, "fchdir"); (sync, "sync"); (dup3, "dup3");
    (probe_load, "probe_load"); (probe_read, "probe_read");
    (span_begin, "span_begin"); (span_end, "span_end");
  ]

(* The rest of the advertised ABI surface: numbers Asterinas registers
   but this reproduction serves with an explicit ENOSYS handler. The
   ranges cover scheduling, signals, timers, xattrs, epoll, inotify,
   namespaces — the long tail of a 210+-call ABI. *)
let stub_range =
  List.filter
    (fun n -> not (List.mem_assoc n named))
    (List.init 335 (fun i -> i))

let stubbed = List.filteri (fun i _ -> i < 335 - List.length named) stub_range

let registered = List.sort compare (List.map fst named @ stubbed)

let registered_count = List.length registered

(* Name and kprof scope label per nr, built once so the dispatch hot
   path does an array load instead of an assoc-list walk or an
   allocation. Numbers past the table still get a name, just slowly. *)
let table_size = 1 + List.fold_left max 0 registered

let fallback_name n = Printf.sprintf "sys_%d" n

let names =
  let a = Array.init table_size fallback_name in
  List.iter (fun (n, s) -> a.(n) <- s) named;
  a

let scope_names = Array.map (fun s -> "syscall." ^ s) names

let name n = if n >= 0 && n < table_size then names.(n) else fallback_name n

let scope_name n = if n >= 0 && n < table_size then scope_names.(n) else "syscall." ^ name n
