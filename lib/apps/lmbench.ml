type row = {
  name : string;
  category : string;
  unit_ : string;
  higher_better : bool;
  run : Sim.Profile.t -> float;
}

let lo_ip = Aster.Packet.ip_of_string "127.0.0.1"

(* Boot, run [setup] (which spawns processes), simulate, return the value
   the workload deposited. *)
let measure profile setup =
  ignore (Runner.boot ~profile);
  let out = ref nan in
  setup out;
  Runner.run ();
  !out

let lat_iters = 300

(* --- Proc --- *)

let lat_syscall_null profile =
  measure profile (fun out ->
      Runner.spawn ~name:"lat_null" (fun c ->
          for _ = 1 to 10 do
            ignore (Libc.getpid c)
          done;
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  ignore (Libc.getpid c)
                done)
          in
          out := us /. float_of_int lat_iters;
          0))

let lat_ctx profile =
  (* 18 processes in a pipe ring passing a one-byte token. *)
  let nprocs = 18 in
  let rounds = 40 in
  measure profile (fun out ->
      Runner.spawn ~name:"lat_ctx" (fun c ->
          let pipes = Array.init (nprocs + 1) (fun _ -> Result.get_ok (Libc.pipe c)) in
          for i = 0 to nprocs - 1 do
            let rfd = fst pipes.(i) and wfd = snd pipes.(i + 1) in
            ignore
              (Libc.fork c (fun uapi ->
                   let cc = Libc.make uapi in
                   let buf = Libc.ualloc cc 64 in
                   let continue = ref true in
                   while !continue do
                     let n = Libc.read cc ~fd:rfd ~vaddr:buf ~len:1 in
                     if n <= 0 then continue := false
                     else ignore (Libc.write cc ~fd:wfd ~vaddr:buf ~len:1)
                   done;
                   0))
          done;
          let buf = Libc.ualloc c 64 in
          (* Warm it once. *)
          ignore (Libc.write c ~fd:(snd pipes.(0)) ~vaddr:buf ~len:1);
          ignore (Libc.read c ~fd:(fst pipes.(nprocs)) ~vaddr:buf ~len:1);
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to rounds do
                  ignore (Libc.write c ~fd:(snd pipes.(0)) ~vaddr:buf ~len:1);
                  ignore (Libc.read c ~fd:(fst pipes.(nprocs)) ~vaddr:buf ~len:1)
                done)
          in
          (* Per hand-off: each round crosses nprocs+1 switch+pipe hops. *)
          out := us /. float_of_int (rounds * (nprocs + 1));
          (* Tear down the ring. *)
          Array.iter
            (fun (rfd, wfd) ->
              ignore (Libc.close c rfd);
              ignore (Libc.close c wfd))
            pipes;
          for _ = 1 to nprocs do
            ignore (Libc.waitpid c)
          done;
          0))

let grow_image c pages =
  (* Give the measuring process a realistically-sized image so fork has
     page tables to copy (lmbench is a ~1 MB binary plus libc). *)
  let addr = Libc.mmap c ~len:(pages * 4096) in
  for i = 0 to pages - 1 do
    (Libc.raw c).Ostd.User.mem_write_u64 (addr + (i * 4096)) 1L
  done

let lat_proc_fork profile =
  let iters = 25 in
  measure profile (fun out ->
      Runner.spawn ~name:"lat_fork" (fun c ->
          grow_image c 700;
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to iters do
                  ignore (Libc.fork c (fun _ -> 0));
                  ignore (Libc.waitpid c)
                done)
          in
          out := us /. float_of_int iters;
          0))

let lat_proc_exec profile =
  let iters = 25 in
  Aster.Uprog_registry.register "hello-exec" (fun _ _ -> 0);
  measure profile (fun out ->
      Runner.spawn ~name:"lat_exec" (fun c ->
          grow_image c 700;
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to iters do
                  ignore
                    (Libc.fork c (fun uapi ->
                         let cc = Libc.make uapi in
                         Libc.execve cc "/bin/hello-exec" [ "hello-exec" ]));
                  ignore (Libc.waitpid c)
                done)
          in
          out := us /. float_of_int iters;
          0))

let lat_proc_shell profile =
  let iters = 15 in
  Aster.Uprog_registry.register "hello-exec" (fun _ _ -> 0);
  Aster.Uprog_registry.register "sh" (fun uapi argv ->
      (* /bin/sh -c prog: fork and exec the target. *)
      let c = Libc.make uapi in
      match argv with
      | [ _; "-c"; prog ] ->
        ignore
          (Libc.fork c (fun uapi2 ->
               let c2 = Libc.make uapi2 in
               Libc.execve c2 ("/bin/" ^ prog) [ prog ]));
        (match Libc.waitpid c with Ok (_, code) -> code | Error _ -> 127)
      | _ -> 127);
  measure profile (fun out ->
      Runner.spawn ~name:"lat_shell" (fun c ->
          grow_image c 700;
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to iters do
                  ignore
                    (Libc.fork c (fun uapi ->
                         let cc = Libc.make uapi in
                         Libc.execve cc "/bin/sh" [ "sh"; "-c"; "hello-exec" ]));
                  ignore (Libc.waitpid c)
                done)
          in
          out := us /. float_of_int iters;
          0))

(* --- Mem --- *)

let lat_pagefault profile =
  let pages = 1500 in
  measure profile (fun out ->
      Runner.spawn ~name:"lat_pf" (fun c ->
          let addr = Libc.mmap c ~len:(pages * 4096) in
          let us =
            Runner.time_us (fun () ->
                for i = 0 to pages - 1 do
                  (Libc.raw c).Ostd.User.mem_write_u64 (addr + (i * 4096)) 7L
                done)
          in
          out := us /. float_of_int pages;
          0))

let lat_mmap profile =
  let iters = 40 in
  let len = 4 * 1024 * 1024 in
  measure profile (fun out ->
      Runner.spawn ~name:"lat_mmap" (fun c ->
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to iters do
                  let a = Libc.mmap c ~len in
                  ignore (Libc.munmap c ~addr:a ~len)
                done)
          in
          out := us /. float_of_int iters;
          0))

let bw_mmap profile =
  (* Read a freshly-faulted region through user loads. *)
  let len = 8 * 1024 * 1024 in
  measure profile (fun out ->
      Runner.spawn ~name:"bw_mmap" (fun c ->
          let addr = Libc.mmap c ~len in
          (* Touch all pages (faults), then measure streaming reads. *)
          for i = 0 to (len / 4096) - 1 do
            (Libc.raw c).Ostd.User.mem_write_u64 (addr + (i * 4096)) 1L
          done;
          let chunk = 65536 in
          let us =
            Runner.time_us (fun () ->
                let pos = ref 0 in
                while !pos < len do
                  ignore (Libc.get_bytes c (addr + !pos) chunk);
                  (* Streaming a large region misses every cache level:
                     charge the DRAM-bandwidth part on top of the copy. *)
                  Sim.Clock.charge (chunk / 12);
                  pos := !pos + chunk
                done)
          in
          out := Runner.mb_per_s ~bytes_moved:len ~us;
          0))

(* --- IPC: pipes and unix sockets --- *)

let pingpong_pipe profile =
  measure profile (fun out ->
      Runner.spawn ~name:"lat_pipe" (fun c ->
          let p2c_r, p2c_w = Result.get_ok (Libc.pipe c) in
          let c2p_r, c2p_w = Result.get_ok (Libc.pipe c) in
          ignore
            (Libc.fork c (fun uapi ->
                 let cc = Libc.make uapi in
                 let buf = Libc.ualloc cc 16 in
                 let continue = ref true in
                 while !continue do
                   let n = Libc.read cc ~fd:p2c_r ~vaddr:buf ~len:1 in
                   if n <= 0 then continue := false
                   else ignore (Libc.write cc ~fd:c2p_w ~vaddr:buf ~len:1)
                 done;
                 0));
          let buf = Libc.ualloc c 16 in
          ignore (Libc.write c ~fd:p2c_w ~vaddr:buf ~len:1);
          ignore (Libc.read c ~fd:c2p_r ~vaddr:buf ~len:1);
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  ignore (Libc.write c ~fd:p2c_w ~vaddr:buf ~len:1);
                  ignore (Libc.read c ~fd:c2p_r ~vaddr:buf ~len:1)
                done)
          in
          (* lmbench reports the full round trip. *)
          out := us /. float_of_int lat_iters;
          ignore (Libc.close c p2c_w);
          ignore (Libc.waitpid c);
          0))

let bw_pipe profile =
  let total = 8 * 1024 * 1024 in
  let chunk = 65536 in
  measure profile (fun out ->
      Runner.spawn ~name:"bw_pipe" (fun c ->
          let rfd, wfd = Result.get_ok (Libc.pipe c) in
          ignore
            (Libc.fork c (fun uapi ->
                 let cc = Libc.make uapi in
                 let buf = Libc.ualloc cc chunk in
                 let sent = ref 0 in
                 while !sent < total do
                   let n = Libc.write cc ~fd:wfd ~vaddr:buf ~len:chunk in
                   if n <= 0 then sent := total else sent := !sent + n
                 done;
                 ignore (Libc.close cc wfd);
                 0));
          ignore (Libc.close c wfd);
          let buf = Libc.ualloc c chunk in
          let got = ref 0 in
          let us =
            Runner.time_us (fun () ->
                let continue = ref true in
                while !continue do
                  let n = Libc.read c ~fd:rfd ~vaddr:buf ~len:chunk in
                  if n <= 0 then continue := false else got := !got + n
                done)
          in
          out := Runner.mb_per_s ~bytes_moved:!got ~us;
          ignore (Libc.waitpid c);
          0))

let lat_fifo profile =
  measure profile (fun out ->
      Runner.spawn ~name:"lat_fifo" (fun c ->
          (* Create the two FIFOs through the fs (mknod analogue: the
             kernel attaches the ring on first open). *)
          let mkfifo path =
            let parent = "/tmp" in
            ignore parent;
            (* creat with kind Fifo: use mkdir-style create via openat is
               not expressible; use the registry-free trick: create then
               mark. Simplest ABI-true path: mkfifo is mknod(2), which we
               model with mkdir's create handler — so create via a
               dedicated mknod syscall is skipped and we pre-create the
               inode kernel-side. *)
            match Aster.Vfs.resolve_parent path with
            | Ok (p, leaf) ->
              ignore (p.Aster.Vfs.inode.Aster.Vfs.ops.Aster.Vfs.create p.Aster.Vfs.inode leaf Aster.Vfs.Fifo ~mode:0o644)
            | Error _ -> ()
          in
          mkfifo "/tmp/fifo1";
          mkfifo "/tmp/fifo2";
          ignore
            (Libc.fork c (fun uapi ->
                 let cc = Libc.make uapi in
                 let rfd = Libc.openf cc "/tmp/fifo1" ~flags:0 ~mode:0 in
                 let wfd = Libc.openf cc "/tmp/fifo2" ~flags:1 ~mode:0 in
                 let buf = Libc.ualloc cc 16 in
                 let continue = ref true in
                 while !continue do
                   let n = Libc.read cc ~fd:rfd ~vaddr:buf ~len:1 in
                   if n <= 0 then continue := false
                   else ignore (Libc.write cc ~fd:wfd ~vaddr:buf ~len:1)
                 done;
                 0));
          let wfd = Libc.openf c "/tmp/fifo1" ~flags:1 ~mode:0 in
          let rfd = Libc.openf c "/tmp/fifo2" ~flags:0 ~mode:0 in
          let buf = Libc.ualloc c 16 in
          ignore (Libc.write c ~fd:wfd ~vaddr:buf ~len:1);
          ignore (Libc.read c ~fd:rfd ~vaddr:buf ~len:1);
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  ignore (Libc.write c ~fd:wfd ~vaddr:buf ~len:1);
                  ignore (Libc.read c ~fd:rfd ~vaddr:buf ~len:1)
                done)
          in
          out := us /. float_of_int lat_iters;
          ignore (Libc.close c wfd);
          ignore (Libc.waitpid c);
          0))

let lat_unix profile =
  measure profile (fun out ->
      Runner.spawn ~name:"lat_unix" (fun c ->
          let sa = Libc.socket c ~domain:1 ~typ:1 in
          ignore (Libc.bind_unix c ~fd:sa ~path:"/tmp/lat_unix");
          ignore (Libc.listen c ~fd:sa ~backlog:2);
          ignore
            (Libc.fork c (fun uapi ->
                 let cc = Libc.make uapi in
                 let fd = Libc.socket cc ~domain:1 ~typ:1 in
                 ignore (Libc.connect_unix cc ~fd ~path:"/tmp/lat_unix");
                 let buf = Libc.ualloc cc 16 in
                 let continue = ref true in
                 while !continue do
                   let n = Libc.read cc ~fd ~vaddr:buf ~len:1 in
                   if n <= 0 then continue := false
                   else ignore (Libc.write cc ~fd ~vaddr:buf ~len:1)
                 done;
                 0));
          let conn = Libc.accept c ~fd:sa in
          let buf = Libc.ualloc c 16 in
          ignore (Libc.write c ~fd:conn ~vaddr:buf ~len:1);
          ignore (Libc.read c ~fd:conn ~vaddr:buf ~len:1);
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  ignore (Libc.write c ~fd:conn ~vaddr:buf ~len:1);
                  ignore (Libc.read c ~fd:conn ~vaddr:buf ~len:1)
                done)
          in
          out := us /. float_of_int lat_iters;
          ignore (Libc.shutdown c ~fd:conn);
          ignore (Libc.waitpid c);
          0))

let bw_unix profile =
  let total = 8 * 1024 * 1024 in
  let chunk = 65536 in
  measure profile (fun out ->
      Runner.spawn ~name:"bw_unix" (fun c ->
          let sa = Libc.socket c ~domain:1 ~typ:1 in
          ignore (Libc.bind_unix c ~fd:sa ~path:"/tmp/bw_unix");
          ignore (Libc.listen c ~fd:sa ~backlog:2);
          ignore
            (Libc.fork c (fun uapi ->
                 let cc = Libc.make uapi in
                 let fd = Libc.socket cc ~domain:1 ~typ:1 in
                 ignore (Libc.connect_unix cc ~fd ~path:"/tmp/bw_unix");
                 let buf = Libc.ualloc cc chunk in
                 let sent = ref 0 in
                 while !sent < total do
                   let n = Libc.write cc ~fd ~vaddr:buf ~len:chunk in
                   if n <= 0 then sent := total else sent := !sent + n
                 done;
                 ignore (Libc.shutdown cc ~fd);
                 0));
          let conn = Libc.accept c ~fd:sa in
          let buf = Libc.ualloc c chunk in
          let got = ref 0 in
          let us =
            Runner.time_us (fun () ->
                let continue = ref true in
                while !continue do
                  let n = Libc.read c ~fd:conn ~vaddr:buf ~len:chunk in
                  if n <= 0 then continue := false else got := !got + n
                done)
          in
          out := Runner.mb_per_s ~bytes_moved:!got ~us;
          ignore (Libc.waitpid c);
          0))

(* --- FS --- *)

let with_test_file c =
  ignore (Libc.mkdir c "/tmp/lmbench");
  let fd = Libc.openf c "/tmp/lmbench/f00" ~flags:0o101 ~mode:0o644 in
  ignore (Libc.write_str c ~fd "x");
  ignore (Libc.close c fd)

let lat_syscall_open profile =
  (* lmbench opens /dev/null. *)
  measure profile (fun out ->
      Runner.spawn ~name:"lat_open" (fun c ->
          let fd0 = Libc.openf c "/dev/null" ~flags:0 ~mode:0 in
          ignore (Libc.close c fd0);
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  let fd = Libc.openf c "/dev/null" ~flags:0 ~mode:0 in
                  ignore (Libc.close c fd)
                done)
          in
          out := us /. float_of_int lat_iters;
          0))

let lat_syscall_read profile =
  measure profile (fun out ->
      Runner.spawn ~name:"lat_read" (fun c ->
          let fd = Libc.openf c "/dev/zero" ~flags:0 ~mode:0 in
          let buf = Libc.ualloc c 16 in
          ignore (Libc.read c ~fd ~vaddr:buf ~len:1);
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  ignore (Libc.read c ~fd ~vaddr:buf ~len:1)
                done)
          in
          out := us /. float_of_int lat_iters;
          0))

let lat_syscall_write profile =
  measure profile (fun out ->
      Runner.spawn ~name:"lat_write" (fun c ->
          let fd = Libc.openf c "/dev/null" ~flags:1 ~mode:0 in
          let buf = Libc.ualloc c 16 in
          ignore (Libc.write c ~fd ~vaddr:buf ~len:1);
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  ignore (Libc.write c ~fd ~vaddr:buf ~len:1)
                done)
          in
          out := us /. float_of_int lat_iters;
          0))

let lat_syscall_stat profile =
  measure profile (fun out ->
      Runner.spawn ~name:"lat_stat" (fun c ->
          ignore (Libc.stat c "/dev/null");
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  ignore (Libc.stat c "/dev/null")
                done)
          in
          out := us /. float_of_int lat_iters;
          0))

let lat_syscall_fstat profile =
  measure profile (fun out ->
      Runner.spawn ~name:"lat_fstat" (fun c ->
          with_test_file c;
          let fd = Libc.openf c "/tmp/lmbench/f00" ~flags:0 ~mode:0 in
          ignore (Libc.fstat c fd);
          let us =
            Runner.time_us (fun () ->
                for _ = 1 to lat_iters do
                  ignore (Libc.fstat c fd)
                done)
          in
          out := us /. float_of_int lat_iters;
          0))

let bw_file_rd profile =
  let size = 8 * 1024 * 1024 in
  let chunk = 65536 in
  measure profile (fun out ->
      Runner.spawn ~name:"bw_file_rd" (fun c ->
          let fd = Libc.openf c "/tmp/big" ~flags:0o101 ~mode:0o644 in
          let buf = Libc.ualloc c chunk in
          let written = ref 0 in
          while !written < size do
            written := !written + Libc.write c ~fd ~vaddr:buf ~len:chunk
          done;
          ignore (Libc.close c fd);
          let fd = Libc.openf c "/tmp/big" ~flags:0 ~mode:0 in
          let got = ref 0 in
          let us =
            Runner.time_us (fun () ->
                let continue = ref true in
                while !continue do
                  let n = Libc.read c ~fd ~vaddr:buf ~len:chunk in
                  if n <= 0 then continue := false else got := !got + n
                done)
          in
          out := Runner.mb_per_s ~bytes_moved:!got ~us;
          0))

let lmdd ~src ~dst profile =
  let size = 4 * 1024 * 1024 in
  let chunk = 65536 in
  measure profile (fun out ->
      Runner.spawn ~name:"lmdd" (fun c ->
          let sf = Libc.openf c src ~flags:0o101 ~mode:0o644 in
          let buf = Libc.ualloc c chunk in
          let written = ref 0 in
          while !written < size do
            written := !written + Libc.write c ~fd:sf ~vaddr:buf ~len:chunk
          done;
          ignore (Libc.close c sf);
          let sf = Libc.openf c src ~flags:0 ~mode:0 in
          let df = Libc.openf c dst ~flags:0o101 ~mode:0o644 in
          let moved = ref 0 in
          let us =
            Runner.time_us (fun () ->
                let continue = ref true in
                while !continue do
                  let n = Libc.read c ~fd:sf ~vaddr:buf ~len:chunk in
                  if n <= 0 then continue := false
                  else begin
                    ignore (Libc.write c ~fd:df ~vaddr:buf ~len:n);
                    moved := !moved + n
                  end
                done)
          in
          out := Runner.mb_per_s ~bytes_moved:!moved ~us;
          0))

(* --- Net --- *)

let lat_udp_loopback profile =
  measure profile (fun out ->
      Runner.spawn ~name:"udp-srv" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:2 in
          ignore (Libc.bind_inet c ~fd ~port:5001);
          let buf = Libc.ualloc c 64 in
          for _ = 1 to lat_iters + 1 do
            let n = Libc.recvfrom c ~fd ~vaddr:buf ~len:64 in
            ignore (Libc.sendto_inet c ~fd ~ip:lo_ip ~port:5002 ~vaddr:buf ~len:n)
          done;
          0);
      Runner.spawn ~name:"udp-cli" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:2 in
          ignore (Libc.bind_inet c ~fd ~port:5002);
          let buf = Libc.ualloc c 64 in
          ignore (Libc.nanosleep_us c 100.);
          let round () =
            ignore (Libc.sendto_inet c ~fd ~ip:lo_ip ~port:5001 ~vaddr:buf ~len:4);
            ignore (Libc.recvfrom c ~fd ~vaddr:buf ~len:64)
          in
          round ();
          let us = Runner.time_us (fun () -> for _ = 1 to lat_iters do round () done) in
          out := us /. float_of_int lat_iters;
          0))

let lat_tcp_loopback profile =
  measure profile (fun out ->
      Runner.spawn ~name:"tcp-srv" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:1 in
          ignore (Libc.bind_inet c ~fd ~port:5003);
          ignore (Libc.listen c ~fd ~backlog:2);
          let conn = Libc.accept c ~fd in
          let buf = Libc.ualloc c 64 in
          let continue = ref true in
          while !continue do
            let n = Libc.read c ~fd:conn ~vaddr:buf ~len:1 in
            if n <= 0 then continue := false
            else ignore (Libc.write c ~fd:conn ~vaddr:buf ~len:1)
          done;
          0);
      Runner.spawn ~name:"tcp-cli" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:1 in
          let rec wait_connect tries =
            if Libc.connect_inet c ~fd ~ip:lo_ip ~port:5003 >= 0 then ()
            else if tries > 0 then begin
              ignore (Libc.nanosleep_us c 100.);
              wait_connect (tries - 1)
            end
          in
          wait_connect 50;
          let buf = Libc.ualloc c 64 in
          let round () =
            ignore (Libc.write c ~fd ~vaddr:buf ~len:1);
            ignore (Libc.read c ~fd ~vaddr:buf ~len:1)
          in
          round ();
          let us = Runner.time_us (fun () -> for _ = 1 to lat_iters do round () done) in
          out := us /. float_of_int lat_iters;
          ignore (Libc.shutdown c ~fd);
          0))

let bw_tcp_loopback ~msg profile =
  let total = 8 * 1024 * 1024 in
  measure profile (fun out ->
      Runner.spawn ~name:"bw-srv" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:1 in
          ignore (Libc.bind_inet c ~fd ~port:5004);
          ignore (Libc.listen c ~fd ~backlog:2);
          let conn = Libc.accept c ~fd in
          let buf = Libc.ualloc c 65536 in
          let got = ref 0 in
          let us =
            Runner.time_us (fun () ->
                let continue = ref true in
                while !continue do
                  let n = Libc.read c ~fd:conn ~vaddr:buf ~len:65536 in
                  if n <= 0 then continue := false else got := !got + n
                done)
          in
          out := Runner.mb_per_s ~bytes_moved:!got ~us;
          0);
      Runner.spawn ~name:"bw-cli" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:1 in
          let rec wait_connect tries =
            if Libc.connect_inet c ~fd ~ip:lo_ip ~port:5004 >= 0 then ()
            else if tries > 0 then begin
              ignore (Libc.nanosleep_us c 100.);
              wait_connect (tries - 1)
            end
          in
          wait_connect 50;
          let buf = Libc.ualloc c msg in
          let sent = ref 0 in
          while !sent < total do
            let n = Libc.write c ~fd ~vaddr:buf ~len:msg in
            if n <= 0 then sent := total else sent := !sent + n
          done;
          ignore (Libc.shutdown c ~fd);
          0))

(* Virtio rows: the peer lives on the host side of the tap. *)

let with_host profile setup = Workload.with_host ~profile ~default:nan setup

let lat_udp_virtio profile =
  with_host profile (fun host out ->
      (* Host echo. *)
      let hsock = Aster.Udp.socket host.Aster.Kernel.hudp in
      ignore (Aster.Udp.bind hsock ~port:5001);
      ignore
        (Ostd.Task.spawn ~name:"host-udp-echo" (fun () ->
             let buf = Bytes.create 64 in
             for _ = 1 to lat_iters + 1 do
               match Aster.Udp.recvfrom hsock ~buf ~pos:0 ~len:64 with
               | Ok (n, ip, port) ->
                 ignore
                   (Aster.Udp.sendto hsock ~dst_ip:ip ~dst_port:port ~buf ~pos:0 ~len:n)
               | Error _ -> ()
             done));
      Runner.spawn ~name:"udp-cli" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:2 in
          ignore (Libc.bind_inet c ~fd ~port:5002);
          let buf = Libc.ualloc c 64 in
          ignore (Libc.nanosleep_us c 200.);
          let round () =
            ignore
              (Libc.sendto_inet c ~fd ~ip:Aster.Kernel.host_ip ~port:5001 ~vaddr:buf ~len:4);
            ignore (Libc.recvfrom c ~fd ~vaddr:buf ~len:64)
          in
          round ();
          let us = Runner.time_us (fun () -> for _ = 1 to lat_iters do round () done) in
          out := us /. float_of_int lat_iters;
          0))

let lat_tcp_virtio profile =
  with_host profile (fun host out ->
      (match Aster.Tcp.listen host.Aster.Kernel.htcp ~port:5003 with
      | Error _ -> ()
      | Ok l ->
        ignore
          (Ostd.Task.spawn ~name:"host-tcp-echo" (fun () ->
               let conn = Aster.Tcp.accept l in
               let buf = Bytes.create 64 in
               let continue = ref true in
               while !continue do
                 match Aster.Tcp.recv conn ~buf ~pos:0 ~len:1 with
                 | Ok 0 | Error _ -> continue := false
                 | Ok n -> ignore (Aster.Tcp.send conn ~buf ~pos:0 ~len:n)
               done)));
      Runner.spawn ~name:"tcp-cli" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:1 in
          ignore (Libc.connect_inet c ~fd ~ip:Aster.Kernel.host_ip ~port:5003);
          let buf = Libc.ualloc c 64 in
          let round () =
            ignore (Libc.write c ~fd ~vaddr:buf ~len:1);
            ignore (Libc.read c ~fd ~vaddr:buf ~len:1)
          in
          round ();
          let n = 150 in
          let us = Runner.time_us (fun () -> for _ = 1 to n do round () done) in
          out := us /. float_of_int n;
          ignore (Libc.shutdown c ~fd);
          0))

let bw_tcp_virtio ~msg profile =
  let total = 4 * 1024 * 1024 in
  with_host profile (fun host out ->
      (match Aster.Tcp.listen host.Aster.Kernel.htcp ~port:5004 with
      | Error _ -> ()
      | Ok l ->
        ignore
          (Ostd.Task.spawn ~name:"host-tcp-sink" (fun () ->
               let conn = Aster.Tcp.accept l in
               let buf = Bytes.create 65536 in
               let got = ref 0 in
               let t0 = Sim.Clock.now () in
               let continue = ref true in
               while !continue do
                 match Aster.Tcp.recv conn ~buf ~pos:0 ~len:65536 with
                 | Ok 0 | Error _ -> continue := false
                 | Ok n -> got := !got + n
               done;
               let us = Sim.Clock.to_us (Int64.sub (Sim.Clock.now ()) t0) in
               out := Runner.mb_per_s ~bytes_moved:!got ~us)));
      Runner.spawn ~name:"bw-cli" (fun c ->
          let fd = Libc.socket c ~domain:2 ~typ:1 in
          ignore (Libc.connect_inet c ~fd ~ip:Aster.Kernel.host_ip ~port:5004);
          let buf = Libc.ualloc c msg in
          let sent = ref 0 in
          while !sent < total do
            let n = Libc.write c ~fd ~vaddr:buf ~len:msg in
            if n <= 0 then sent := total else sent := !sent + n
          done;
          ignore (Libc.shutdown c ~fd);
          0))

(* Host -> guest bulk stream: the guest is the RECEIVER, so this is the
   row that exercises the GRO reap path (bw_tcp_virtio above measures
   guest TX). Not an lmbench table row — the offload ablations and the
   smoke gate drive it directly. *)
let bw_tcp_rx_virtio ~msg profile =
  let total = 4 * 1024 * 1024 in
  with_host profile (fun host out ->
      let ready = ref false in
      Runner.spawn ~name:"bw-rx-sink" (fun c ->
          let sfd = Libc.socket c ~domain:2 ~typ:1 in
          ignore (Libc.bind_inet c ~fd:sfd ~port:5005);
          ignore (Libc.listen c ~fd:sfd ~backlog:1);
          ready := true;
          let conn = Libc.accept c ~fd:sfd in
          if conn < 0 then 1
          else begin
            let buf = Libc.ualloc c 65536 in
            let got = ref 0 in
            let t0 = Sim.Clock.now () in
            let continue = ref true in
            while !continue do
              let n = Libc.read c ~fd:conn ~vaddr:buf ~len:65536 in
              if n <= 0 then continue := false else got := !got + n
            done;
            let us = Sim.Clock.to_us (Int64.sub (Sim.Clock.now ()) t0) in
            out := Runner.mb_per_s ~bytes_moved:!got ~us;
            ignore (Libc.close c conn);
            0
          end);
      ignore
        (Ostd.Task.spawn ~name:"host-tcp-src" (fun () ->
             while not !ready do
               Ostd.Task.yield_now ()
             done;
             match
               Aster.Tcp.connect host.Aster.Kernel.htcp ~dst_ip:Aster.Kernel.guest_ip
                 ~dst_port:5005
             with
             | Error _ -> ()
             | Ok conn ->
               let buf = Bytes.create msg in
               let sent = ref 0 in
               while !sent < total do
                 match Aster.Tcp.send conn ~buf ~pos:0 ~len:(min msg (total - !sent)) with
                 | Ok n -> sent := !sent + n
                 | Error _ -> sent := total
               done;
               Aster.Tcp.close conn)))

let us_row name category run = { name; category; unit_ = "us"; higher_better = false; run }

let bw_row name category run = { name; category; unit_ = "MB/s"; higher_better = true; run }

let rows =
  [
    us_row "lat_syscall null" "Proc" lat_syscall_null;
    us_row "lat_ctx 18" "Proc" lat_ctx;
    us_row "lat_proc fork" "Proc" lat_proc_fork;
    us_row "lat_proc exec" "Proc" lat_proc_exec;
    us_row "lat_proc shell" "Proc" lat_proc_shell;
    us_row "lat_pagefault" "Mem" lat_pagefault;
    us_row "lat_mmap 4m" "Mem" lat_mmap;
    bw_row "bw_mmap 256m" "Mem" bw_mmap;
    us_row "lat_pipe" "IPC" pingpong_pipe;
    bw_row "bw_pipe" "IPC" bw_pipe;
    us_row "lat_fifo" "IPC" lat_fifo;
    us_row "lat_unix" "IPC" lat_unix;
    bw_row "bw_unix" "IPC" bw_unix;
    us_row "lat_syscall open" "FS" lat_syscall_open;
    us_row "lat_syscall read" "FS" lat_syscall_read;
    us_row "lat_syscall write" "FS" lat_syscall_write;
    us_row "lat_syscall stat" "FS" lat_syscall_stat;
    us_row "lat_syscall fstat" "FS" lat_syscall_fstat;
    bw_row "bw_file_rd 512m" "FS" bw_file_rd;
    bw_row "lmdd(Ramfs->Ramfs)" "FS" (lmdd ~src:"/tmp/src" ~dst:"/tmp/dst");
    bw_row "lmdd(Ramfs->Ext2)" "FS" (lmdd ~src:"/tmp/src" ~dst:"/ext2/dst");
    bw_row "lmdd(Ext2->Ramfs)" "FS" (lmdd ~src:"/ext2/src" ~dst:"/tmp/dst");
    bw_row "lmdd(Ext2->Ext2)" "FS" (lmdd ~src:"/ext2/src" ~dst:"/ext2/dst");
    us_row "lat_udp (loopback)" "Net:Loopback" lat_udp_loopback;
    us_row "lat_tcp (loopback)" "Net:Loopback" lat_tcp_loopback;
    bw_row "bw_tcp 128 (loopback)" "Net:Loopback" (bw_tcp_loopback ~msg:128);
    bw_row "bw_tcp 64k (loopback)" "Net:Loopback" (bw_tcp_loopback ~msg:65536);
    us_row "lat_udp (virtio)" "Net:VirtIO" lat_udp_virtio;
    us_row "lat_tcp (virtio)" "Net:VirtIO" lat_tcp_virtio;
    bw_row "bw_tcp 128 (virtio)" "Net:VirtIO" (bw_tcp_virtio ~msg:128);
    bw_row "bw_tcp 64k (virtio)" "Net:VirtIO" (bw_tcp_virtio ~msg:65536);
  ]

let find name = List.find (fun r -> r.name = name) rows
