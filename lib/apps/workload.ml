let in_process ?(after_boot = ignore) ~profile ~name ~default body =
  ignore (Runner.boot ~profile);
  after_boot ();
  let out = ref default in
  Runner.spawn ~name (fun c ->
      out := body c;
      0);
  Runner.run ();
  !out

let fio ?after_boot ~profile ~mbytes () =
  in_process ?after_boot ~profile ~name:"fio"
    ~default:{ Fio.write_mb_s = nan; read_cold_mb_s = nan; read_mb_s = nan }
    (fun c -> Fio.run c ~file:"/ext2/fio.dat" ~mbytes)

let fio_fsync ~profile ~mbytes =
  in_process ~profile ~name:"fio-fsync" ~default:(nan, 0) (fun c ->
      Fio.run_fsync c ~file:"/ext2/fiof.dat" ~mbytes)

let speedtest1 ~profile ~size =
  in_process ~profile ~name:"speedtest1" ~default:[] (fun c -> Speedtest1.run ~size c)

let with_host ~profile ~default drive =
  let k = Runner.boot ~profile in
  let host = Aster.Kernel.attach_host k in
  let out = ref default in
  drive host out;
  Runner.run ();
  !out

let nginx_rps ~profile ~file ~requests =
  with_host ~profile ~default:nan (fun host out ->
      Mini_nginx.spawn ~requests ~sizes:[ ("f4k", 4096); ("f64k", 65536) ] ();
      Ab.run ~host ~path:("/" ^ file) ~concurrency:32 ~requests ~on_done:(fun r ->
          out := r.Ab.rps))

let redis_rps ~profile ~op ~requests =
  with_host ~profile ~default:nan (fun host out ->
      Mini_redis.spawn ();
      (* Fill the shared list first, as redis-benchmark's earlier phases do. *)
      Redis_bench.run_op ~host ~op:"RPUSH" ~clients:8 ~requests:700 ~on_done:(fun _ ->
          Redis_bench.run_op ~host ~op ~clients:16 ~requests ~on_done:(fun r ->
              out := r.Redis_bench.rps)))

let c10k ~conns ~rounds ~batch ~churn =
  let r =
    with_host ~profile:Sim.Profile.asterinas ~default:None (fun host out ->
        C10k.spawn_server ();
        C10k.run ~host ~conns ~rounds ~batch ~churn ~on_done:(fun r -> out := Some r))
  in
  match r with None -> failwith "c10k: driver did not finish" | Some r -> r
