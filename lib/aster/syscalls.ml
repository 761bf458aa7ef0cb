module N = Syscall_nr

let net : (Netstack.t * Tcp.engine * Udp.engine) option ref = ref None

let init_net stack tcp udp = net := Some (stack, tcp, udp)

let the_net () =
  match !net with
  | Some n -> n
  | None -> Ostd.Panic.panic "Syscalls: network engines not initialised"

(* --- User memory access with kernel-side fault handling --- *)

let vm proc = Mm.vmspace (Process.mm proc)

let rec user_read proc ~vaddr ~len =
  let buf = Bytes.create len in
  match Ostd.Vmspace.copy_out (vm proc) ~vaddr ~buf ~pos:0 ~len with
  | Ok () -> Ok buf
  | Error { Ostd.Vmspace.vaddr = fa; write } ->
    if Mm.handle_fault (Process.mm proc) ~vaddr:fa ~write then user_read proc ~vaddr ~len
    else Error Errno.efault

let rec user_write proc ~vaddr buf =
  match Ostd.Vmspace.copy_in (vm proc) ~vaddr ~buf ~pos:0 ~len:(Bytes.length buf) with
  | Ok () -> Ok ()
  | Error { Ostd.Vmspace.vaddr = fa; write } ->
    if Mm.handle_fault (Process.mm proc) ~vaddr:fa ~write then user_write proc ~vaddr buf
    else Error Errno.efault

let read_str proc vaddr =
  (* NUL-terminated, capped at a page, read in 64-byte chunks. As in
     strncpy_from_user, a chunk that faults falls back to the bytes
     before the next page boundary, so a string whose NUL ends the last
     mapped page reads whole instead of failing on the page after it. *)
  let page = Ostd.Vmspace.page_size in
  let rec scan acc off =
    if off >= page then Error Errno.einval
    else
      let addr = vaddr + off in
      let len = min 64 (page - off) and to_page_end = page - (addr mod page) in
      let chunk =
        match user_read proc ~vaddr:addr ~len with
        | Error e when e = Errno.efault && to_page_end < len ->
          user_read proc ~vaddr:addr ~len:to_page_end
        | r -> r
      in
      match chunk with
      | Error e -> Error e
      | Ok chunk -> (
        match Bytes.index_opt chunk '\000' with
        | Some i -> Ok (acc ^ Bytes.sub_string chunk 0 i)
        | None -> scan (acc ^ Bytes.to_string chunk) (off + Bytes.length chunk))
  in
  scan "" 0

let read_str_array proc vaddr =
  (* NULL-terminated array of string pointers. *)
  let rec go i acc =
    if i > 64 then Ok (List.rev acc)
    else
      match user_read proc ~vaddr:(vaddr + (8 * i)) ~len:8 with
      | Error e -> Error e
      | Ok b -> (
        let p = Int64.to_int (Bytes.get_int64_le b 0) in
        if p = 0 then Ok (List.rev acc)
        else
          match read_str proc p with
          | Error e -> Error e
          | Ok s -> go (i + 1) (s :: acc))
  in
  if vaddr = 0 then Ok [] else go 0 []

(* --- Result plumbing: handlers return (int64, errno) results --- *)

let ok n = Ok (Int64.of_int n)
let ok64 v = Ok v
let err e = Error e

let lift = function Ok v -> ok v | Error e -> err e

let file_of proc fd =
  match File.Table.lookup (Process.fdt proc) (Int64.to_int fd) with
  | Some f -> Ok f
  | None -> Error Errno.ebadf

let int_arg (args : int64 array) i = Int64.to_int args.(i)

(* --- FIFO plumbing: named pipes get their ring on first open --- *)

let fifo_pipes : (int, Pipe.t) Hashtbl.t = Hashtbl.create 8

let fifo_pipe (inode : Vfs.inode) =
  match Hashtbl.find_opt fifo_pipes inode.Vfs.ino with
  | Some p -> p
  | None ->
    let p = Pipe.create () in
    Hashtbl.replace fifo_pipes inode.Vfs.ino p;
    p

(* --- read/write on each file flavour --- *)

let do_read_desc (f : File.t) ~len =
  let buf = Bytes.create len in
  let nonblock = f.File.flags land File.o_nonblock <> 0 in
  match f.File.desc with
  | File.Inode_file inode -> (
    Vfs.touch_atime inode;
    match inode.Vfs.ops.Vfs.read inode ~pos:f.File.pos ~buf ~boff:0 ~len with
    | Ok n ->
      f.File.pos <- f.File.pos + n;
      Ok (Bytes.sub buf 0 n)
    | Error e -> Error e)
  | File.Pipe_read p -> (
    match Pipe.read ~nonblock p ~buf ~pos:0 ~len with
    | Ok n -> Ok (Bytes.sub buf 0 n)
    | Error e -> Error e)
  | File.Pipe_write _ -> Error Errno.ebadf
  | File.Epoll _ -> Error Errno.einval
  | File.Socket s -> (
    match s.File.st with
    | File.S_tcp_conn c -> (
      match Tcp.recv ~nonblock c ~buf ~pos:0 ~len with
      | Ok n -> Ok (Bytes.sub buf 0 n)
      | Error e -> Error e)
    | File.S_unix_conn ep -> (
      match Unix_sock.recv ~nonblock ep ~buf ~pos:0 ~len with
      | Ok n -> Ok (Bytes.sub buf 0 n)
      | Error e -> Error e)
    | File.S_udp u -> (
      match Udp.recvfrom ~nonblock u ~buf ~pos:0 ~len with
      | Ok (n, _, _) -> Ok (Bytes.sub buf 0 n)
      | Error e -> Error e)
    | _ -> Error Errno.enotconn)

(* [?len] lets callers hand over a partially-filled buffer (sendfile's
   reused bounce buffer) without a [Bytes.sub] copy per chunk. *)
let do_write_desc ?len proc (f : File.t) data =
  ignore proc;
  let len = match len with Some n -> n | None -> Bytes.length data in
  match f.File.desc with
  | File.Inode_file inode -> (
    let pos = if f.File.flags land File.o_append <> 0 then inode.Vfs.size else f.File.pos in
    match inode.Vfs.ops.Vfs.write inode ~pos ~buf:data ~boff:0 ~len with
    | Ok n ->
      f.File.pos <- pos + n;
      Ok n
    | Error e -> Error e)
  | File.Pipe_write p -> Pipe.write ~nonblock:(f.File.flags land File.o_nonblock <> 0) p ~buf:data ~pos:0 ~len
  | File.Pipe_read _ -> Error Errno.ebadf
  | File.Epoll _ -> Error Errno.einval
  | File.Socket s -> (
    let nonblock = f.File.flags land File.o_nonblock <> 0 in
    match s.File.st with
    | File.S_tcp_conn c -> Tcp.send ~nonblock c ~buf:data ~pos:0 ~len
    | File.S_unix_conn ep -> Unix_sock.send ~nonblock ep ~buf:data ~pos:0 ~len
    | _ -> Error Errno.enotconn)

(* --- Individual syscalls ---

   Byte counts are size_t: like Linux's rw_verify_area, a count that is
   negative as an ssize_t fails with EINVAL before any buffer is sized. *)

let sys_read proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    let len = int_arg args 2 in
    if len < 0 then err Errno.einval
    else
      match do_read_desc f ~len with
      | Error e -> err e
      | Ok data -> (
        match user_write proc ~vaddr:(int_arg args 1) data with
        | Ok () -> ok (Bytes.length data)
        | Error e -> err e))

let sys_write proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    let len = int_arg args 2 in
    if len < 0 then err Errno.einval
    else begin
      Strace.record_size ~nr:N.write ~size:len;
      match user_read proc ~vaddr:(int_arg args 1) ~len with
      | Error e -> err e
      | Ok data -> lift (do_write_desc proc f data)
    end)

let sys_pread proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode -> (
      let len = int_arg args 2 and off = int_arg args 3 in
      if len < 0 then err Errno.einval
      else
        let buf = Bytes.create len in
        match inode.Vfs.ops.Vfs.read inode ~pos:off ~buf ~boff:0 ~len with
        | Error e -> err e
        | Ok n -> (
          match user_write proc ~vaddr:(int_arg args 1) (Bytes.sub buf 0 n) with
          | Ok () -> ok n
          | Error e -> err e))
    | _ -> err Errno.espipe)

let sys_pwrite proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode -> (
      let len = int_arg args 2 and off = int_arg args 3 in
      if len < 0 then err Errno.einval
      else begin
        Strace.record_size ~nr:N.pwrite64 ~size:len;
        match user_read proc ~vaddr:(int_arg args 1) ~len with
        | Error e -> err e
        | Ok data -> lift (inode.Vfs.ops.Vfs.write inode ~pos:off ~buf:data ~boff:0 ~len)
      end)
    | _ -> err Errno.espipe)

let iovec_list proc vaddr count =
  let rec go i acc =
    if i >= count then Ok (List.rev acc)
    else
      match user_read proc ~vaddr:(vaddr + (16 * i)) ~len:16 with
      | Error e -> Error e
      | Ok b ->
        go (i + 1)
          ((Int64.to_int (Bytes.get_int64_le b 0), Int64.to_int (Bytes.get_int64_le b 8)) :: acc)
  in
  go 0 []

let sys_readv proc args =
  match iovec_list proc (int_arg args 1) (int_arg args 2) with
  | Error e -> err e
  | Ok iovs ->
    let total = ref 0 in
    let rec go = function
      | [] -> ok !total
      | (base, len) :: rest -> (
        match sys_read proc [| args.(0); Int64.of_int base; Int64.of_int len |] with
        | Ok n when Int64.to_int n = len ->
          total := !total + Int64.to_int n;
          go rest
        | Ok n ->
          total := !total + Int64.to_int n;
          ok !total
        | Error e -> if !total > 0 then ok !total else err e)
    in
    go iovs

let sys_writev proc args =
  match iovec_list proc (int_arg args 1) (int_arg args 2) with
  | Error e -> err e
  | Ok iovs ->
    let total = ref 0 in
    let rec go = function
      | [] -> ok !total
      | (base, len) :: rest -> (
        match sys_write proc [| args.(0); Int64.of_int base; Int64.of_int len |] with
        | Ok n ->
          total := !total + Int64.to_int n;
          go rest
        | Error e -> if !total > 0 then ok !total else err e)
    in
    go iovs

let do_open proc path flags mode =
  let cwd = Process.cwd proc in
  let open_inode inode =
    if flags land File.o_trunc <> 0 && inode.Vfs.kind = Vfs.Reg then
      ignore (inode.Vfs.ops.Vfs.truncate inode 0);
    let desc =
      if inode.Vfs.kind = Vfs.Fifo then begin
        (* Read or write end, by access mode (low 2 bits). *)
        let p = fifo_pipe inode in
        if flags land 3 = 0 then File.Pipe_read p else File.Pipe_write p
      end
      else File.Inode_file (inode.Vfs.ops.Vfs.open_file inode)
    in
    let f = File.make desc ~flags in
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.open_misc;
    ok (File.Table.install (Process.fdt proc) f)
  in
  match Vfs.resolve ~cwd path with
  | Ok { Vfs.inode; _ } ->
    if flags land File.o_excl <> 0 && flags land File.o_creat <> 0 then err Errno.eexist
    else if flags land File.o_directory <> 0 && inode.Vfs.kind <> Vfs.Dir then
      err Errno.enotdir
    else open_inode inode
  | Error e when e = Errno.enoent && flags land File.o_creat <> 0 -> (
    match Vfs.resolve_parent ~cwd path with
    | Error e -> err e
    | Ok (parent, leaf) -> (
      match
        parent.Vfs.inode.Vfs.ops.Vfs.create parent.Vfs.inode leaf Vfs.Reg
          ~mode:(mode land lnot (Process.umask proc))
      with
      | Ok inode -> open_inode inode
      | Error e -> err e))
  | Error e -> err e

let sys_open proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> do_open proc path (int_arg args 1) (int_arg args 2)

let sys_openat proc args =
  (* Only AT_FDCWD-style resolution: dirfd is ignored for absolute and
     cwd-relative paths, which covers our workloads. *)
  match read_str proc (int_arg args 1) with
  | Error e -> err e
  | Ok path -> do_open proc path (int_arg args 2) (int_arg args 3)

let sys_close proc args = lift (Result.map (fun () -> 0) (File.Table.close (Process.fdt proc) (int_arg args 0)))

let sys_lseek proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode ->
      let off = int_arg args 1 in
      let newpos =
        match int_arg args 2 with
        | 0 -> off (* SEEK_SET *)
        | 1 -> f.File.pos + off
        | 2 -> inode.Vfs.size + off
        | _ -> -1
      in
      if newpos < 0 then err Errno.einval
      else begin
        f.File.pos <- newpos;
        ok newpos
      end
    | _ -> err Errno.espipe)

let stat_of_inode (inode : Vfs.inode) =
  {
    Abi.ino = inode.Vfs.ino;
    size = inode.Vfs.size;
    mode = inode.Vfs.mode;
    nlink = inode.Vfs.nlink;
    kind = Abi.kind_code inode.Vfs.kind;
    mtime_ns = inode.Vfs.mtime_ns;
  }

let write_stat proc vaddr inode =
  Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.stat_fill;
  match user_write proc ~vaddr (Abi.encode_stat (stat_of_inode inode)) with
  | Ok () -> ok 0
  | Error e -> err e

let sys_stat proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Ok { Vfs.inode; _ } -> write_stat proc (int_arg args 1) inode
    | Error e -> err e)

let sys_fstat proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode -> write_stat proc (int_arg args 1) inode
    | _ ->
      (* Sockets and pipes: synthesize a minimal stat. *)
      let fake =
        { Abi.ino = 0; size = 0; mode = 0o600; nlink = 1; kind = 12; mtime_ns = 0L }
      in
      (match user_write proc ~vaddr:(int_arg args 1) (Abi.encode_stat fake) with
      | Ok () -> ok 0
      | Error e -> err e))

let sys_newfstatat proc args =
  match read_str proc (int_arg args 1) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Ok { Vfs.inode; _ } -> write_stat proc (int_arg args 2) inode
    | Error e -> err e)

let sys_access proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Ok _ -> ok 0
    | Error e -> err e)

let sys_pipe2 proc args =
  let p = Pipe.create () in
  let fdt = Process.fdt proc in
  let rfd = File.Table.install fdt (File.make (File.Pipe_read p) ~flags:0) in
  let wfd = File.Table.install fdt (File.make (File.Pipe_write p) ~flags:1) in
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int rfd);
  Bytes.set_int32_le b 4 (Int32.of_int wfd);
  match user_write proc ~vaddr:(int_arg args 0) b with
  | Ok () -> ok 0
  | Error e -> err e

let sys_dup proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f ->
    File.get f;
    ok (File.Table.install (Process.fdt proc) f)

let sys_dup2 proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f ->
    File.get f;
    File.Table.install_at (Process.fdt proc) (int_arg args 1) f;
    ok (int_arg args 1)

let sys_fcntl proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match int_arg args 1 with
    | 0 (* F_DUPFD *) ->
      File.get f;
      ok (File.Table.install (Process.fdt proc) f)
    | 3 (* F_GETFL *) -> ok f.File.flags
    | 4 (* F_SETFL *) ->
      f.File.flags <- int_arg args 2;
      ok 0
    | _ -> ok 0)

let sys_mmap proc args =
  (* Anonymous private mappings only (what the workloads use). *)
  lift (Mm.do_mmap (Process.mm proc) ~len:(int_arg args 1))

let sys_munmap proc args =
  match Mm.do_munmap (Process.mm proc) ~addr:(int_arg args 0) ~len:(int_arg args 1) with
  | Ok () -> ok 0
  | Error e -> err e

let sys_mprotect proc args =
  let writable = int_arg args 2 land 2 <> 0 in
  match Mm.do_mprotect (Process.mm proc) ~addr:(int_arg args 0) ~len:(int_arg args 1) ~writable with
  | Ok () -> ok 0
  | Error e -> err e

let sys_brk proc args = ok (Mm.do_brk (Process.mm proc) (int_arg args 0))

let sys_nanosleep proc args =
  match user_read proc ~vaddr:(int_arg args 0) ~len:16 with
  | Error e -> err e
  | Ok b ->
    let sec, nsec = Abi.decode_timespec b in
    let us = (Int64.to_float sec *. 1e6) +. (Int64.to_float nsec /. 1e3) in
    Ostd.Task.sleep_us us;
    ok 0

let sys_getdents proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode when inode.Vfs.kind = Vfs.Dir ->
      let all = Abi.encode_dirents (inode.Vfs.ops.Vfs.readdir inode) in
      let cap = int_arg args 2 in
      let remaining = Bytes.length all - f.File.pos in
      if remaining <= 0 then ok 0
      else begin
        let n = min cap remaining in
        match user_write proc ~vaddr:(int_arg args 1) (Bytes.sub all f.File.pos n) with
        | Ok () ->
          f.File.pos <- f.File.pos + n;
          ok n
        | Error e -> err e
      end
    | File.Inode_file _ -> err Errno.enotdir
    | _ -> err Errno.enotdir)

let sys_getcwd proc args =
  let path = (Process.cwd proc).Vfs.path ^ "\000" in
  let cap = int_arg args 1 in
  if String.length path > cap then err Errno.einval
  else
    match user_write proc ~vaddr:(int_arg args 0) (Bytes.of_string path) with
    | Ok () -> ok (String.length path)
    | Error e -> err e

let sys_chdir proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Ok r when r.Vfs.inode.Vfs.kind = Vfs.Dir ->
      Process.set_cwd proc r;
      ok 0
    | Ok _ -> err Errno.enotdir
    | Error e -> err e)

let with_parent proc args_path k =
  match read_str proc args_path with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve_parent ~cwd:(Process.cwd proc) path with
    | Error e -> err e
    | Ok (parent, leaf) -> k parent leaf)

let sys_mkdir proc args =
  with_parent proc (int_arg args 0) (fun parent leaf ->
      match
        parent.Vfs.inode.Vfs.ops.Vfs.create parent.Vfs.inode leaf Vfs.Dir
          ~mode:(int_arg args 1 land lnot (Process.umask proc))
      with
      | Ok _ -> ok 0
      | Error e -> err e)

let sys_unlink proc args =
  with_parent proc (int_arg args 0) (fun parent leaf ->
      match parent.Vfs.inode.Vfs.ops.Vfs.unlink parent.Vfs.inode leaf with
      | Ok () -> ok 0
      | Error e -> err e)

let sys_rmdir = sys_unlink

let sys_rename proc args =
  with_parent proc (int_arg args 0) (fun sparent sleaf ->
      with_parent proc (int_arg args 1) (fun dparent dleaf ->
          match
            sparent.Vfs.inode.Vfs.ops.Vfs.rename sparent.Vfs.inode sleaf dparent.Vfs.inode
              dleaf
          with
          | Ok () -> ok 0
          | Error e -> err e))

let sys_link proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok oldpath -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) oldpath with
    | Error e -> err e
    | Ok target ->
      with_parent proc (int_arg args 1) (fun parent leaf ->
          match parent.Vfs.inode.Vfs.ops.Vfs.link parent.Vfs.inode leaf target.Vfs.inode with
          | Ok () -> ok 0
          | Error e -> err e))

let sys_symlink proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok target ->
    with_parent proc (int_arg args 1) (fun parent leaf ->
        match parent.Vfs.inode.Vfs.ops.Vfs.create parent.Vfs.inode leaf Vfs.Lnk ~mode:0o777 with
        | Error e -> err e
        | Ok inode -> (
          match inode.Vfs.ops.Vfs.set_symlink inode target with
          | Ok () -> ok 0
          | Error e -> err e))

let sys_readlink proc args =
  (* resolve() follows links, so inspect the parent and leaf directly. *)
  with_parent proc (int_arg args 0) (fun parent leaf ->
      match parent.Vfs.inode.Vfs.ops.Vfs.lookup parent.Vfs.inode leaf with
      | None -> err Errno.enoent
      | Some inode -> (
        match inode.Vfs.ops.Vfs.symlink_target inode with
        | None -> err Errno.einval
        | Some target ->
          let n = min (String.length target) (int_arg args 2) in
          (match user_write proc ~vaddr:(int_arg args 1) (Bytes.of_string (String.sub target 0 n)) with
          | Ok () -> ok n
          | Error e -> err e)))

let sys_truncate proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Error e -> err e
    | Ok { Vfs.inode; _ } -> (
      match inode.Vfs.ops.Vfs.truncate inode (int_arg args 1) with
      | Ok () -> ok 0
      | Error e -> err e))

let sys_ftruncate proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode -> (
      match inode.Vfs.ops.Vfs.truncate inode (int_arg args 1) with
      | Ok () -> ok 0
      | Error e -> err e)
    | _ -> err Errno.einval)

let sys_fsync proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode -> (
      match inode.Vfs.ops.Vfs.fsync inode with
      | Ok () -> (
        (* errseq_t: a writeback error since this file's last sample is
           this caller's to see, even if some sync(2) consumed the
           legacy sticky error first. The sample advances so the error
           reports once per file. *)
        match Block.wb_check ~since:f.File.wb_sample with
        | Ok () -> ok 0
        | Error (seq, code) ->
          f.File.wb_sample <- seq;
          err code)
      | Error e -> err e)
    | _ -> err Errno.einval)

let sys_chmod proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Error e -> err e
    | Ok { Vfs.inode; _ } ->
      inode.Vfs.mode <- int_arg args 1 land 0o7777;
      ok 0)

let sys_umask proc args =
  let old = Process.umask proc in
  Process.set_umask proc (int_arg args 0 land 0o777);
  ok old

(* Why the loop stopped: end-of-file is a normal exit, not an errno
   smuggled through the error channel. *)
type sendfile_stop = Sf_eof | Sf_err of int

let sys_sendfile proc args =
  match (file_of proc args.(0), file_of proc args.(1)) with
  | Error e, _ | _, Error e -> err e
  | Ok out_f, Ok in_f -> (
    match in_f.File.desc with
    | File.Inode_file inode ->
      let count = int_arg args 3 in
      let chunk_size = 64 * 1024 in
      (* Zero-copy sendfile-to-wire: when the source is page-cache
         backed and the sink is TCP, map the cache frames straight into
         the transmit path — the frames stay pinned until the NIC's
         completion reaps them, and the CPU never touches the payload.
         Anything else falls back to the classic bounce-buffer loop. *)
      let zero_copy =
        (Sim.Profile.get ()).Sim.Profile.sendfile_zero_copy
        && File.tcp_conn_of out_f <> None
        && Ramfs.file_cache inode <> None
      in
      let sent = ref 0 in
      let stop = ref None in
      (* One bounce buffer reused across the whole transfer. *)
      let buf = if zero_copy then Bytes.empty else Bytes.create (min chunk_size count) in
      while !sent < count && !stop = None do
        let want = min chunk_size (count - !sent) in
        if zero_copy then begin
          match Ramfs.file_view inode ~pos:in_f.File.pos ~len:want with
          | None -> stop := Some Sf_eof
          | Some (data, n, pins) -> (
            let conn =
              match File.tcp_conn_of out_f with Some c -> c | None -> assert false
            in
            match Tcp.send ~pins conn ~buf:data ~pos:0 ~len:n with
            | Ok w ->
              in_f.File.pos <- in_f.File.pos + w;
              sent := !sent + w
            | Error e -> stop := Some (Sf_err e))
        end
        else
          match inode.Vfs.ops.Vfs.read inode ~pos:in_f.File.pos ~buf ~boff:0 ~len:want with
          | Error e -> stop := Some (Sf_err e)
          | Ok 0 -> stop := Some Sf_eof
          | Ok n -> (
            (* The file-system read above was the first copy. *)
            Sim.Stats.add "net.bytes_copied" n;
            (* The paper: Asterinas' sendfile is less optimised — it
               takes an extra copy through an intermediate buffer, and
               the smoltcp-style stack copies once more into its own
               transmit buffer. Linux's zero-copy path hands page-cache
               pages to the NIC directly. *)
            if not (Sim.Profile.get ()).Sim.Profile.sendfile_zero_copy then begin
              Sim.Cost.charge_memcpy n;
              Sim.Stats.add "net.bytes_copied" n
            end;
            match do_write_desc ~len:n proc out_f buf with
            | Ok w ->
              in_f.File.pos <- in_f.File.pos + w;
              sent := !sent + w
            | Error e -> stop := Some (Sf_err e))
      done;
      (match !stop with
      | None | Some Sf_eof -> ok !sent
      | Some (Sf_err e) -> if !sent > 0 then ok !sent else err e)
    | _ -> err Errno.einval)

(* --- Sockets --- *)

let sys_socket proc args =
  let domain = int_arg args 0 and typ = int_arg args 1 land 0xf in
  let kind =
    if domain = Abi.af_inet && typ = Abi.sock_stream then Some File.Inet_stream
    else if domain = Abi.af_inet && typ = Abi.sock_dgram then Some File.Inet_dgram
    else if domain = Abi.af_unix && typ = Abi.sock_stream then Some File.Unix_stream
    else None
  in
  match kind with
  | None -> err Errno.eafnosupport
  | Some kind ->
    let sock = { File.kind; st = File.S_unbound; bport = None; upath = None } in
    ok (File.Table.install (Process.fdt proc) (File.make (File.Socket sock) ~flags:0))

let sock_of f =
  match f.File.desc with File.Socket s -> Ok s | _ -> Error Errno.enotsock

let read_sockaddr proc vaddr len =
  if vaddr = 0 then Ok None
  else
    match user_read proc ~vaddr ~len:(max 8 (min len 128)) with
    | Error e -> Error e
    | Ok b -> Ok (Abi.decode_sockaddr b)

let sys_bind proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match read_sockaddr proc (int_arg args 1) (int_arg args 2) with
      | Error e -> err e
      | Ok (Some (Abi.Addr_in { port; _ })) -> (
        match s.File.kind with
        | File.Inet_stream ->
          s.File.bport <- Some port;
          ok 0
        | File.Inet_dgram -> (
          let _, _, udp = the_net () in
          ignore udp;
          let u =
            match s.File.st with
            | File.S_udp u -> u
            | _ ->
              let _, _, eng = the_net () in
              let u = Udp.socket eng in
              s.File.st <- File.S_udp u;
              u
          in
          match Udp.bind u ~port with Ok () -> ok 0 | Error e -> err e)
        | File.Unix_stream -> err Errno.einval)
      | Ok (Some (Abi.Addr_un path)) ->
        s.File.upath <- Some path;
        ok 0
      | Ok None -> err Errno.efault))

let sys_listen proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match (s.File.kind, s.File.bport, s.File.upath) with
      | File.Inet_stream, Some port, _ -> (
        let _, tcp, _ = the_net () in
        let backlog =
          let b = int_arg args 1 in
          if b <= 0 then 1 else min b 4096
        in
        match Tcp.listen ~backlog tcp ~port with
        | Ok l ->
          s.File.st <- File.S_tcp_listener l;
          ok 0
        | Error e -> err e)
      | File.Unix_stream, _, Some path -> (
        match Unix_sock.listen ~path with
        | Ok l ->
          s.File.st <- File.S_unix_listener l;
          ok 0
        | Error e -> err e)
      | _ -> err Errno.einval))

(* accept4(2)'s SOCK_NONBLOCK shares O_NONBLOCK's bit value on Linux. *)
let sock_nonblock = File.o_nonblock

let do_accept proc f s ~addr_ptr ~sock_flags =
  let nflags = if sock_flags land sock_nonblock <> 0 then File.o_nonblock else 0 in
  (* A listener marked O_NONBLOCK never sleeps in accept: EAGAIN when
     the queue is empty — the epoll accept-drain loop's exit signal. *)
  let listener_nb = f.File.flags land File.o_nonblock <> 0 in
  match s.File.st with
  | File.S_tcp_listener l -> (
    Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.open_misc;
    let conn_opt = if listener_nb then Tcp.accept_opt l else Some (Tcp.accept l) in
    match conn_opt with
    | None -> err Errno.eagain
    | Some conn ->
      let ns =
        { File.kind = File.Inet_stream; st = File.S_tcp_conn conn; bport = None; upath = None }
      in
      let fd = File.Table.install (Process.fdt proc) (File.make (File.Socket ns) ~flags:nflags) in
      if addr_ptr <> 0 then begin
        let ip, port = Tcp.peer_of conn in
        ignore (user_write proc ~vaddr:addr_ptr (Abi.encode_sockaddr_in ~port ~ip))
      end;
      ok fd)
  | File.S_unix_listener l -> (
    let ep_opt = if listener_nb then Unix_sock.accept_opt l else Some (Unix_sock.accept l) in
    match ep_opt with
    | None -> err Errno.eagain
    | Some ep ->
      let ns =
        { File.kind = File.Unix_stream; st = File.S_unix_conn ep; bport = None; upath = None }
      in
      ok (File.Table.install (Process.fdt proc) (File.make (File.Socket ns) ~flags:nflags)))
  | _ -> err Errno.einval

let sys_accept proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> do_accept proc f s ~addr_ptr:(int_arg args 1) ~sock_flags:0)

let sys_accept4 proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> do_accept proc f s ~addr_ptr:(int_arg args 1) ~sock_flags:(int_arg args 3))

let sys_connect proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match read_sockaddr proc (int_arg args 1) (int_arg args 2) with
      | Error e -> err e
      | Ok (Some (Abi.Addr_in { port; ip })) -> (
        match s.File.kind with
        | File.Inet_stream -> (
          let _, tcp, _ = the_net () in
          match Tcp.connect tcp ~dst_ip:ip ~dst_port:port with
          | Ok conn ->
            s.File.st <- File.S_tcp_conn conn;
            ok 0
          | Error e -> err e)
        | File.Inet_dgram ->
          (* Connected UDP: remember the peer. *)
          s.File.bport <- Some port;
          ok 0
        | File.Unix_stream -> err Errno.einval)
      | Ok (Some (Abi.Addr_un path)) -> (
        match Unix_sock.connect ~path with
        | Ok ep ->
          s.File.st <- File.S_unix_conn ep;
          ok 0
        | Error e -> err e)
      | Ok None -> err Errno.efault))

let sys_sendto proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match s.File.st with
      | File.S_udp _ | File.S_unbound when s.File.kind = File.Inet_dgram -> (
        if int_arg args 2 < 0 then err Errno.einval
        else
          match user_read proc ~vaddr:(int_arg args 1) ~len:(int_arg args 2) with
          | Error e -> err e
          | Ok data -> (
            let u =
              match s.File.st with
              | File.S_udp u -> u
              | _ ->
                let _, _, eng = the_net () in
                let u = Udp.socket eng in
                s.File.st <- File.S_udp u;
                u
            in
            match read_sockaddr proc (int_arg args 4) (int_arg args 5) with
            | Error e -> err e
            | Ok (Some (Abi.Addr_in { port; ip })) ->
              lift (Udp.sendto u ~dst_ip:ip ~dst_port:port ~buf:data ~pos:0 ~len:(Bytes.length data))
            | Ok _ -> err Errno.einval))
      | _ -> sys_write proc [| args.(0); args.(1); args.(2) |]))

let sys_recvfrom proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match s.File.st with
      | File.S_udp u -> (
        let len = int_arg args 2 in
        if len < 0 then err Errno.einval
        else
          let buf = Bytes.create len in
          match Udp.recvfrom u ~buf ~pos:0 ~len with
          | Error e -> err e
          | Ok (n, src_ip, src_port) -> (
            let addr_ptr = int_arg args 4 in
            if addr_ptr <> 0 then
              ignore
                (user_write proc ~vaddr:addr_ptr
                   (Abi.encode_sockaddr_in ~port:src_port ~ip:src_ip));
            match user_write proc ~vaddr:(int_arg args 1) (Bytes.sub buf 0 n) with
            | Ok () -> ok n
            | Error e -> err e))
      | _ -> sys_read proc [| args.(0); args.(1); args.(2) |]))

let sys_socketpair proc args =
  if int_arg args 0 <> Abi.af_unix then err Errno.eafnosupport
  else begin
    let a, b = Unix_sock.socketpair () in
    let mk ep = { File.kind = File.Unix_stream; st = File.S_unix_conn ep; bport = None; upath = None } in
    let fdt = Process.fdt proc in
    let fa = File.Table.install fdt (File.make (File.Socket (mk a)) ~flags:0) in
    let fb = File.Table.install fdt (File.make (File.Socket (mk b)) ~flags:0) in
    let out = Bytes.create 8 in
    Bytes.set_int32_le out 0 (Int32.of_int fa);
    Bytes.set_int32_le out 4 (Int32.of_int fb);
    match user_write proc ~vaddr:(int_arg args 3) out with
    | Ok () -> ok 0
    | Error e -> err e
  end

let sys_getsockname proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s ->
      let port = match s.File.bport with Some p -> p | None -> 0 in
      (match user_write proc ~vaddr:(int_arg args 1) (Abi.encode_sockaddr_in ~port ~ip:0) with
      | Ok () -> ok 0
      | Error e -> err e))

let sys_shutdown proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match sock_of f with
    | Error e -> err e
    | Ok s -> (
      match s.File.st with
      | File.S_tcp_conn c ->
        Tcp.close c;
        ok 0
      | File.S_unix_conn ep ->
        Unix_sock.close ep;
        ok 0
      | _ -> err Errno.enotconn))

(* --- Process management --- *)

let sys_kill _proc args =
  let pid = int_arg args 0 and signal = int_arg args 1 in
  match Process.by_pid pid with
  | None -> err Errno.esrch
  | Some target ->
    if signal = 0 then ok 0
    else begin
      Process.deliver_signal target signal;
      ok 0
    end

let sys_rt_sigaction proc args =
  let signal = int_arg args 0 and act_ptr = int_arg args 1 and old_ptr = int_arg args 2 in
  let st = Process.signals proc in
  if old_ptr <> 0 then begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0
      (match Signal.action st ~signal with
      | Signal.Default -> 0L
      | Signal.Ignore -> 1L
      | Signal.Handled -> 2L);
    ignore (user_write proc ~vaddr:old_ptr b)
  end;
  if act_ptr = 0 then ok 0
  else
    match user_read proc ~vaddr:act_ptr ~len:8 with
    | Error e -> err e
    | Ok b ->
      let d =
        match Bytes.get_int64_le b 0 with
        | 0L -> Signal.Default
        | 1L -> Signal.Ignore
        | _ -> Signal.Handled
      in
      Signal.set_action st ~signal d;
      ok 0

let sys_rt_sigprocmask proc args =
  let how = int_arg args 0 and set_ptr = int_arg args 1 and old_ptr = int_arg args 2 in
  let st = Process.signals proc in
  if old_ptr <> 0 then begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int (Signal.mask st));
    ignore (user_write proc ~vaddr:old_ptr b)
  end;
  if set_ptr = 0 then ok 0
  else
    match user_read proc ~vaddr:set_ptr ~len:8 with
    | Error e -> err e
    | Ok b ->
      let m = Int64.to_int (Bytes.get_int64_le b 0) in
      (match how with
      | 0 -> Signal.block st ~mask:m
      | 1 -> Signal.unblock st ~mask:m
      | 2 ->
        Signal.unblock st ~mask:(Signal.mask st);
        Signal.block st ~mask:m
      | _ -> ());
      ok 0

let sys_rt_sigpending proc args =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int (Signal.pending (Process.signals proc)));
  match user_write proc ~vaddr:(int_arg args 0) b with
  | Ok () -> ok 0
  | Error e -> err e

let sys_mknod proc args =
  with_parent proc (int_arg args 0) (fun parent leaf ->
      let mode = int_arg args 1 in
      let kind = if mode land 0o170000 = 0o010000 then Vfs.Fifo else Vfs.Reg in
      match parent.Vfs.inode.Vfs.ops.Vfs.create parent.Vfs.inode leaf kind ~mode:(mode land 0o777) with
      | Ok _ -> ok 0
      | Error e -> err e)

let sys_lstat proc args =
  (* No final-symlink follow: inspect the parent's entry directly. *)
  with_parent proc (int_arg args 0) (fun parent leaf ->
      match parent.Vfs.inode.Vfs.ops.Vfs.lookup parent.Vfs.inode leaf with
      | Some inode -> write_stat proc (int_arg args 1) inode
      | None -> err Errno.enoent)

let sys_statfs proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok path -> (
    match Vfs.resolve ~cwd:(Process.cwd proc) path with
    | Error e -> err e
    | Ok { Vfs.inode; _ } ->
      (* struct statfs (simplified, 32 bytes): type tag, block size,
         total blocks, free blocks. *)
      let b = Bytes.create 32 in
      let is_ext2 = inode.Vfs.fsname = "ext2" in
      Bytes.set_int64_le b 0 (if is_ext2 then 0xEF53L else 0x858458F6L);
      Bytes.set_int64_le b 8 4096L;
      Bytes.set_int64_le b 16
        (Int64.of_int (if is_ext2 then Block.capacity_sectors () / Block.sectors_per_block else 0));
      Bytes.set_int64_le b 24 (Int64.of_int (if is_ext2 then Ext2.free_blocks () else 0));
      (match user_write proc ~vaddr:(int_arg args 1) b with
      | Ok () -> ok 0
      | Error e -> err e))

let sys_fchdir proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok f -> (
    match f.File.desc with
    | File.Inode_file inode when inode.Vfs.kind = Vfs.Dir ->
      (* Recover an absolute path is not tracked per-fd; keep the inode
         with the cwd's old path as best effort (fchdir after open "/x"). *)
      Process.set_cwd proc { Vfs.inode; path = (Process.cwd proc).Vfs.path };
      ok 0
    | File.Inode_file _ -> err Errno.enotdir
    | _ -> err Errno.enotdir)

let sys_sync _proc _args =
  match Ext2.sync_fs () with Ok () -> ok 0 | Error e -> err e

let sys_fork proc args =
  match Process.resolve_child args.(0) with
  | None -> err Errno.einval
  | Some child -> ok (Process.fork_current proc ~child)

let sys_clone proc args =
  match Process.resolve_child args.(0) with
  | None -> err Errno.einval
  | Some body -> ok (Process.spawn_thread proc ~body)

let sys_wait4 proc args =
  match Process.wait_child proc with
  | Error e -> err e
  | Ok (pid, code) -> (
    let status_ptr = int_arg args 1 in
    if status_ptr = 0 then ok pid
    else begin
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int ((code land 0xff) lsl 8));
      match user_write proc ~vaddr:status_ptr b with
      | Ok () -> ok pid
      | Error e -> err e
    end)

let sys_uname proc args =
  let s = "Asterinas-OCaml\000framekernel\0006.0-repro\000x86_64-sim\000" in
  match user_write proc ~vaddr:(int_arg args 0) (Bytes.of_string s) with
  | Ok () -> ok 0
  | Error e -> err e

(* --- CPU-time exports from task accounting (kprof) --- *)

let cycles_to_ns c = Int64.div (Int64.mul c 1000L) (Int64.of_int Sim.Clock.cycles_per_us)

let cycles_to_usec c = Int64.div c (Int64.of_int Sim.Clock.cycles_per_us)

(* CLK_TCK = 100: one clock tick is 10ms of virtual time. *)
let cycles_per_tick = Int64.of_int (Sim.Clock.cycles_per_us * 10_000)

let cycles_to_ticks c = Int64.div c cycles_per_tick

let proc_cpu_times proc =
  match Process.task proc with Some t -> Ostd.Task.cpu_times t | None -> (0L, 0L)

let sys_clock_gettime proc args =
  let clk = int_arg args 0 in
  let ns =
    if clk = 1 then Ktime.monotonic_ns ()
    else if clk = 2 || clk = 3 then begin
      (* CLOCK_PROCESS_CPUTIME_ID / CLOCK_THREAD_CPUTIME_ID: one task
         per process here, so both read the task's utime + stime. *)
      let ut, st = proc_cpu_times proc in
      cycles_to_ns (Int64.add ut st)
    end
    else Ktime.realtime_ns ()
  in
  let sec = Int64.div ns 1_000_000_000L and nsec = Int64.rem ns 1_000_000_000L in
  match user_write proc ~vaddr:(int_arg args 1) (Abi.encode_timespec ~sec ~nsec) with
  | Ok () -> ok 0
  | Error e -> err e

let sys_getrusage proc args =
  (* struct rusage: two timevals then 14 longs (144 bytes). The fields
     the simulator accounts are real: ru_utime, ru_stime, ru_nvcsw,
     ru_nivcsw. who = RUSAGE_CHILDREN (-1) reports zeros — child times
     are not folded back into the parent. *)
  let who = Int64.to_int args.(0) in
  let b = Bytes.make 144 '\000' in
  let put_timeval off cycles =
    let usec = cycles_to_usec cycles in
    Bytes.set_int64_le b off (Int64.div usec 1_000_000L);
    Bytes.set_int64_le b (off + 8) (Int64.rem usec 1_000_000L)
  in
  if who >= 0 then begin
    let ut, st = proc_cpu_times proc in
    put_timeval 0 ut;
    put_timeval 16 st;
    match Process.task proc with
    | Some t ->
      let nv, niv = Ostd.Task.ctx_switches t in
      Bytes.set_int64_le b 128 (Int64.of_int nv);
      Bytes.set_int64_le b 136 (Int64.of_int niv)
    | None -> ()
  end;
  match user_write proc ~vaddr:(int_arg args 1) b with
  | Ok () -> ok 0
  | Error e -> err e

let sys_times proc args =
  (* struct tms: four clock_t at CLK_TCK = 100; the return value is
     ticks of uptime. A NULL buffer just returns the tick count. *)
  let uptime_ticks = cycles_to_ticks (Sim.Clock.now ()) in
  let ptr = int_arg args 0 in
  if ptr = 0 then ok64 uptime_ticks
  else begin
    let ut, st = proc_cpu_times proc in
    let b = Bytes.make 32 '\000' in
    Bytes.set_int64_le b 0 (cycles_to_ticks ut);
    Bytes.set_int64_le b 8 (cycles_to_ticks st);
    (* tms_cutime / tms_cstime stay zero: no child-time folding. *)
    match user_write proc ~vaddr:ptr b with
    | Ok () -> ok64 uptime_ticks
    | Error e -> err e
  end

let sys_gettimeofday proc args =
  let ns = Ktime.realtime_ns () in
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 (Int64.div ns 1_000_000_000L);
  Bytes.set_int64_le b 8 (Int64.div (Int64.rem ns 1_000_000_000L) 1000L);
  match user_write proc ~vaddr:(int_arg args 0) b with
  | Ok () -> ok 0
  | Error e -> err e

let sys_time proc args =
  let sec = Int64.div (Ktime.realtime_ns ()) 1_000_000_000L in
  let ptr = int_arg args 0 in
  if ptr = 0 then ok64 sec
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 sec;
    match user_write proc ~vaddr:ptr b with
    | Ok () -> ok64 sec
    | Error e -> err e
  end

(* Linux's MAX_RW_COUNT: INT_MAX rounded down to a page. *)
let max_rw_count = 0x7fff_f000

(* The count is a size_t clamped to MAX_RW_COUNT, so a negative count is
   a huge one, not a host error. Bytes are drawn from one stream and
   copied a page-aligned chunk at a time: no host buffer is sized from
   the guest's count, and a fault returns the bytes copied before it
   (EFAULT if none were). *)
let sys_getrandom proc args =
  let len =
    if Int64.unsigned_compare args.(1) (Int64.of_int max_rw_count) > 0 then max_rw_count
    else int_arg args 1
  in
  let rng = Sim.Rng.create (Sim.Clock.now ()) in
  let page = Ostd.Vmspace.page_size in
  let rec fill copied =
    if copied = len then ok len
    else
      let vaddr = int_arg args 0 + copied in
      let n = min (len - copied) (page - (vaddr land (page - 1))) in
      let b = Bytes.init n (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
      match user_write proc ~vaddr b with
      | Ok () -> fill (copied + n)
      | Error e -> if copied > 0 then ok copied else err e
  in
  fill 0

(* --- Readiness syscalls: poll(2) + the epoll family ---

   Both sit on the Pollable seam. poll is the O(nfds) shape: every
   call resolves and levels every fd; blocking parks on the pollables'
   edge publications with one OSTD deadline sleep — no busy loop.
   epoll is the O(ready) shape: the interest list lives in the kernel
   and a wait touches only edge-queued entries. *)

let pollable_of_desc (d : File.desc) =
  match d with
  | File.Pipe_read p -> Some (Pipe.rd_pollable p)
  | File.Pipe_write p -> Some (Pipe.wr_pollable p)
  | File.Epoll e -> Some (Epoll.pollable e)
  | File.Socket s -> (
    match s.File.st with
    | File.S_tcp_conn c -> Some (Tcp.pollable c)
    | File.S_tcp_listener l -> Some (Tcp.listener_pollable l)
    | File.S_udp u -> Some (Udp.pollable u)
    | File.S_unix_conn ep -> Some (Unix_sock.pollable ep)
    | File.S_unix_listener l -> Some (Unix_sock.listener_pollable l)
    | File.S_unbound -> None)
  | File.Inode_file _ -> None

(* poll(2) fails nfds above RLIMIT_NOFILE with EINVAL; the ceiling here
   is Linux's default fs.nr_open. *)
let max_poll_nfds = 1 lsl 20

let sys_poll proc args =
  (* pollfd: int fd, short events, short revents. *)
  let base = int_arg args 0 in
  let nfds = int_arg args 1 in
  if nfds < 0 || nfds > max_poll_nfds then err Errno.einval
  else begin
    (* ERR/HUP/NVAL are reported whether requested or not. *)
    let always = Pollable.pollerr lor Pollable.pollhup lor Pollable.pollnval in
    (* Parse the array and resolve every fd once (poll holds its file
       references for the call's whole duration): a closed fd is
       POLLNVAL, a negative one is ignored, a regular file is always
       readable+writable. This is the per-call O(nfds) cost epoll
       amortises away — each resolution charges an fd lookup. *)
    let entries =
      Array.init nfds (fun i ->
          match user_read proc ~vaddr:(base + (8 * i)) ~len:8 with
          | Error _ -> (-1, 0, `Static 0)
          | Ok b ->
            let fd = Int32.to_int (Bytes.get_int32_le b 0) in
            let events = Bytes.get_uint16_le b 4 in
            let src =
              if fd < 0 then `Static 0
              else
                match File.Table.lookup (Process.fdt proc) fd with
                | None -> `Static Pollable.pollnval
                | Some f -> (
                  match pollable_of_desc f.File.desc with
                  | Some p -> `Pollable p
                  | None -> (
                    match f.File.desc with
                    | File.Inode_file _ -> `Static (Pollable.pollin lor Pollable.pollout)
                    | _ -> `Static 0))
            in
            (fd, events, src))
    in
    let revents_of (_, events, src) =
      match src with
      | `Static bits -> bits land (events lor always)
      | `Pollable p -> Pollable.level p land (events lor always)
    in
    let scan () = Array.map revents_of entries in
    let count revs = Array.fold_left (fun n r -> if r <> 0 then n + 1 else n) 0 revs in
    let write_back revs =
      let b = Bytes.create 8 in
      Array.iteri
        (fun i (fd, events, _) ->
          Bytes.set_int32_le b 0 (Int32.of_int fd);
          Bytes.set_uint16_le b 4 events;
          Bytes.set_uint16_le b 6 revs.(i);
          ignore (user_write proc ~vaddr:(base + (8 * i)) b))
        entries
    in
    let timeout_ms = int_arg args 2 in
    let deadline =
      Int64.add (Sim.Clock.now ()) (Int64.of_int (Sim.Clock.us (float_of_int timeout_ms *. 1000.)))
    in
    (* Subscribe before the first scan so no edge can slip between
       "level says not ready" and "blocked" (the sim never preempts
       between the two, but the order costs nothing and reads right). *)
    let wq = Ostd.Wait_queue.create () in
    let subs =
      Array.to_list entries
      |> List.filter_map (fun (_, _, src) ->
             match src with
             | `Pollable p ->
               Some (p, Pollable.attach p (fun _ -> ignore (Ostd.Wait_queue.wake_all wq : int)))
             | `Static _ -> None)
    in
    let revs = ref (scan ()) in
    let ready () =
      revs := scan ();
      count !revs > 0
    in
    (if count !revs = 0 && timeout_ms <> 0 then
       if timeout_ms < 0 then Ostd.Wait_queue.sleep_until wq ready
       else begin
         Sim.Cost.charge (Sim.Cost.c ()).Sim.Profile.timer_program;
         ignore (Ostd.Wait_queue.sleep_until_deadline wq ~deadline ready : bool)
       end);
    List.iter (fun (p, w) -> Pollable.detach p w) subs;
    write_back !revs;
    ok (count !revs)
  end

(* epoll_event on the wire: packed u32 events + u64 data (12 bytes),
   the x86-64 layout. *)
let epoll_event_size = 12

let sys_epoll_create1 proc _args =
  let e = Epoll.create () in
  ok (File.Table.install (Process.fdt proc) (File.make (File.Epoll e) ~flags:0))

let sys_epoll_ctl proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok epf -> (
    match epf.File.desc with
    | File.Epoll ep -> (
      let op = int_arg args 1 in
      let fd = int_arg args 2 in
      match File.Table.lookup (Process.fdt proc) fd with
      | None -> err Errno.ebadf
      | Some tf ->
        if tf == epf then err Errno.einval (* an epoll fd cannot watch itself *)
        else if op = Epoll.op_del then (
          match Epoll.ctl_del ep ~fd with Ok () -> ok 0 | Error e -> err e)
        else (
          match user_read proc ~vaddr:(int_arg args 3) ~len:epoll_event_size with
          | Error e -> err e
          | Ok b -> (
            let events = Int32.to_int (Bytes.get_int32_le b 0) land 0xffffffff in
            let data = Bytes.get_int64_le b 4 in
            let res =
              if op = Epoll.op_add then (
                match pollable_of_desc tf.File.desc with
                | None -> Error Errno.eperm (* regular files don't poll *)
                | Some p -> Epoll.ctl_add ep ~fd ~pollable:p ~events ~data)
              else if op = Epoll.op_mod then Epoll.ctl_mod ep ~fd ~events ~data
              else Error Errno.einval
            in
            match res with Ok () -> ok 0 | Error e -> err e)))
    | _ -> err Errno.einval)

let sys_epoll_wait proc args =
  match file_of proc args.(0) with
  | Error e -> err e
  | Ok epf -> (
    match epf.File.desc with
    | File.Epoll ep ->
      let maxevents = int_arg args 2 in
      if maxevents <= 0 then err Errno.einval
      else begin
        let timeout_ms = int_arg args 3 in
        let timeout_cycles =
          if timeout_ms < 0 then -1 else Sim.Clock.us (float_of_int timeout_ms *. 1000.)
        in
        let evs = Epoll.wait ep ~maxevents ~timeout_cycles in
        let n = List.length evs in
        if n = 0 then ok 0
        else begin
          let b = Bytes.create (epoll_event_size * n) in
          List.iteri
            (fun i (data, revents) ->
              Bytes.set_int32_le b (epoll_event_size * i) (Int32.of_int revents);
              Bytes.set_int64_le b ((epoll_event_size * i) + 4) data)
            evs;
          match user_write proc ~vaddr:(int_arg args 1) b with
          | Ok () -> ok n
          | Error e -> err e
        end
      end
    | _ -> err Errno.einval)

(* --- bpf(2)-lite probe surface ---

   probe_load(text, len) feeds program text to the kprobe
   parser/verifier; the program attaches on success (returning its
   load-order id) and is rejected wholesale with EINVAL otherwise (the
   reason lands in /proc/kprobe/programs). probe_read(name, buf, len,
   off) copies the program's rendered map tables out, read(2)-style. *)

let probe_text_max = 65536

let sys_probe_load proc args =
  let len = int_arg args 1 in
  if len <= 0 || len > probe_text_max then err Errno.einval
  else
    match user_read proc ~vaddr:(int_arg args 0) ~len with
    | Error e -> err e
    | Ok buf -> (
      match Kprobe.Registry.load_text (Bytes.to_string buf) with
      | Error _ ->
        (* The rejection reason is latched in Registry.last_error. *)
        Sim.Stats.incr "kprobe.rejected";
        err Errno.einval
      | Ok name ->
        Sim.Stats.incr "kprobe.loaded";
        let rec index i = function
          | [] -> -1
          | n :: tl -> if n = name then i else index (i + 1) tl
        in
        ok (index 0 (Kprobe.Registry.list ())))

let sys_probe_read proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok name -> (
    match Kprobe.Registry.render_maps name with
    | None -> err Errno.enoent
    | Some text ->
      let off = int_arg args 3 in
      let len = int_arg args 2 in
      if off < 0 || len < 0 then err Errno.einval
      else if off >= String.length text then ok 0
      else begin
        let n = min len (String.length text - off) in
        match user_write proc ~vaddr:(int_arg args 1) (Bytes.of_string (String.sub text off n)) with
        | Error e -> err e
        | Ok () -> ok n
      end)

(* kspan request boundaries: span_begin(cls_ptr, name_ptr) opens a
   span on the calling task and returns its id; span_end(id) seals it.
   Both are bookkeeping-only — no virtual cycles beyond the ordinary
   syscall cost, so span-on runs stay byte-identical. *)
let sys_span_begin proc args =
  match read_str proc (int_arg args 0) with
  | Error e -> err e
  | Ok cls -> (
    match read_str proc (int_arg args 1) with
    | Error e -> err e
    | Ok name ->
      if cls = "" then err Errno.einval else ok (Sim.Span.begin_ ~cls ~name))

let sys_span_end _proc args =
  let id = int_arg args 0 in
  if id < 0 then err Errno.einval
  else begin
    Sim.Span.end_ id;
    ok 0
  end

(* --- Dispatch table --- *)

let handlers : (int, Process.t -> int64 array -> (int64, int) result) Hashtbl.t =
  Hashtbl.create 128

let reg nr h = Hashtbl.replace handlers nr h

let const_ok _ _ = ok 0

let register_all () =
  reg N.read sys_read;
  reg N.write sys_write;
  reg N.open_ sys_open;
  reg N.openat sys_openat;
  reg N.creat (fun proc args ->
      do_open proc
        (match read_str proc (int_arg args 0) with Ok p -> p | Error _ -> "")
        (File.o_creat lor File.o_trunc lor 1)
        (int_arg args 1));
  reg N.close sys_close;
  reg N.stat sys_stat;
  reg N.fstat sys_fstat;
  reg N.newfstatat sys_newfstatat;
  reg N.access sys_access;
  reg N.lseek sys_lseek;
  reg N.pread64 sys_pread;
  reg N.pwrite64 sys_pwrite;
  reg N.readv sys_readv;
  reg N.writev sys_writev;
  reg N.pipe sys_pipe2;
  reg N.pipe2 sys_pipe2;
  reg N.dup sys_dup;
  reg N.dup2 sys_dup2;
  reg N.fcntl sys_fcntl;
  reg N.mmap sys_mmap;
  reg N.munmap sys_munmap;
  reg N.mprotect sys_mprotect;
  reg N.brk sys_brk;
  reg N.nanosleep sys_nanosleep;
  reg N.clock_nanosleep sys_nanosleep;
  reg N.sched_yield (fun _ _ ->
      Ostd.Task.yield_now ();
      ok 0);
  reg N.getpid (fun proc _ -> ok (Process.pid proc));
  reg N.getppid (fun proc _ -> ok (Process.parent_pid proc));
  reg N.gettid (fun proc _ -> ok (Process.pid proc));
  reg N.getuid const_ok;
  reg N.getgid const_ok;
  reg N.geteuid const_ok;
  reg N.getegid const_ok;
  reg N.setsid (fun proc _ -> ok (Process.pid proc));
  reg N.umask sys_umask;
  reg N.getdents sys_getdents;
  reg N.getdents64 sys_getdents;
  reg N.getcwd sys_getcwd;
  reg N.chdir sys_chdir;
  reg N.mkdir sys_mkdir;
  reg N.mkdirat (fun proc args -> sys_mkdir proc [| args.(1); args.(2) |]);
  reg N.rmdir sys_rmdir;
  reg N.unlink sys_unlink;
  reg N.unlinkat (fun proc args -> sys_unlink proc [| args.(1) |]);
  reg N.rename sys_rename;
  reg N.renameat (fun proc args -> sys_rename proc [| args.(1); args.(3) |]);
  reg N.link sys_link;
  reg N.symlink sys_symlink;
  reg N.readlink sys_readlink;
  reg N.truncate sys_truncate;
  reg N.ftruncate sys_ftruncate;
  reg N.fsync sys_fsync;
  reg N.fdatasync sys_fsync;
  reg N.flock const_ok;
  reg N.chmod sys_chmod;
  reg N.chown const_ok;
  reg N.ioctl const_ok;
  reg N.sendfile sys_sendfile;
  reg N.socket sys_socket;
  reg N.bind sys_bind;
  reg N.listen sys_listen;
  reg N.accept sys_accept;
  reg N.connect sys_connect;
  reg N.sendto sys_sendto;
  reg N.recvfrom sys_recvfrom;
  reg N.socketpair sys_socketpair;
  reg N.getsockname sys_getsockname;
  reg N.setsockopt (fun proc args ->
      (match file_of proc args.(0) with
      | Ok { File.desc = File.Socket { File.st = File.S_tcp_conn conn; _ }; _ }
        when int_arg args 1 = 6 && int_arg args 2 = 1 ->
        Tcp.set_nodelay conn
      | _ -> ());
      ok 0);
  reg N.getsockopt const_ok;
  reg N.shutdown sys_shutdown;
  reg N.fork sys_fork;
  reg 56 sys_clone;
  reg N.execve (fun proc args ->
      match read_str proc (int_arg args 0) with
      | Error e -> err e
      | Ok path -> (
        match read_str_array proc (int_arg args 1) with
        | Error e -> err e
        | Ok argv -> (
          match Process.do_exec proc path argv with
          | Ok () -> Ok Int64.min_int (* marker, see dispatch *)
          | Error e -> err e)));
  reg N.kill sys_kill;
  reg N.rt_sigaction sys_rt_sigaction;
  reg N.rt_sigprocmask sys_rt_sigprocmask;
  reg N.rt_sigpending sys_rt_sigpending;
  reg N.mknod sys_mknod;
  reg N.lstat sys_lstat;
  reg N.statfs sys_statfs;
  reg N.fchdir sys_fchdir;
  reg N.sync sys_sync;
  reg N.dup3 sys_dup2;
  reg N.exit (fun proc _args -> Process.do_exit proc (int_arg _args 0));
  reg N.exit_group (fun proc _args -> Process.do_exit proc (int_arg _args 0));
  reg N.wait4 sys_wait4;
  reg N.uname sys_uname;
  reg N.gettimeofday sys_gettimeofday;
  reg N.clock_gettime sys_clock_gettime;
  reg N.time sys_time;
  reg N.getrandom sys_getrandom;
  reg N.poll sys_poll;
  reg N.epoll_create1 sys_epoll_create1;
  reg N.epoll_ctl sys_epoll_ctl;
  reg N.epoll_wait sys_epoll_wait;
  reg N.accept4 sys_accept4;
  reg N.getrlimit const_ok;
  reg N.getrusage sys_getrusage;
  reg N.times sys_times;
  reg N.probe_load sys_probe_load;
  reg N.probe_read sys_probe_read;
  reg N.span_begin sys_span_begin;
  reg N.span_end sys_span_end

let implemented_count () = Hashtbl.length handlers

let implemented_numbers () =
  Hashtbl.fold (fun nr _ acc -> nr :: acc) handlers [] |> List.sort compare

let is_implemented nr = Hashtbl.mem handlers nr

let dispatch proc nr args =
  (* Registers the user did not set read as zero; handlers can index
     args.(0..5) safely no matter what user space passed. *)
  let args =
    if Array.length args >= 6 then args
    else begin
      let padded = Array.make 6 0L in
      Array.blit args 0 padded 0 (Array.length args);
      padded
    end
  in
  match Hashtbl.find_opt handlers nr with
  | Some h -> (
    (* Containment boundary: a service-level failure raised anywhere
       below (a block read the device could not serve, say) surfaces
       here as the syscall's errno instead of taking the kernel down.
       Invariant violations (Kernel_panic) still propagate. *)
    let res =
      match Ostd.Panic.contain (fun () -> h proc args) with
      | Ok r -> r
      | Error errno ->
        Sim.Stats.incr "syscall.contained_failure";
        Error errno
    in
    (* Syscall exit unplugs the TX queue: segments collected during the
       handler leave as one burst (block-layer plug/flush, ported to the
       NIC). Runs on success and error alike — an errno must not strand
       a half-collected burst. *)
    Netstack.flush_all ();
    match res with
    | Ok v when v = Int64.min_int && nr = N.execve -> Process.Exec_done
    | Ok v -> Process.Ret v
    | Error e -> Process.Ret (Int64.of_int (-e)))
  | None ->
    Sim.Stats.incr "syscall.enosys";
    Process.Ret (Int64.of_int (-Errno.enosys))

let install () =
  Hashtbl.reset fifo_pipes;
  if Hashtbl.length handlers = 0 then register_all ();
  Process.set_syscall_handler dispatch
