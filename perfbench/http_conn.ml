(* http-conn: HTTP/1.0 GETs to mini_nginx (8 epoll workers), one new
   simulated TCP connection per request, under an open loop.

   Why: this workload does most of the connection set-up and teardown
   (handshake, accept4, epoll_ctl, close), the sendfile path and
   virtio-net TX/GSO, while the block layer idles. Most files are
   1-4 KiB, where per-packet cost dominates; a ~10% tail of 64 KiB
   files is where bytes and the wire dominate. *)

open Common

type inputs = {
  names : string array;
  bodies : string array;
  slots : (int array * float array) array; (* per step slot: file per op, unit-rate gaps *)
}

let gen ~seed =
  let rng = Sim.Rng.create (Int64.of_int seed) in
  let small = pi "small_files" and large = pi "large_files" in
  let large_frac = pf "large_frac" in
  let names = Array.init (small + large) (Printf.sprintf "f%03d.bin") in
  let bodies =
    Array.init (small + large) (fun i ->
        let size = if i < small then 1024 + Sim.Rng.int rng 3073 else 65536 in
        Bytes.unsafe_to_string (random_bytes rng size))
  in
  let slot n =
    let files =
      Array.init n (fun _ ->
          if Sim.Rng.float rng 1. < large_frac then small + Sim.Rng.int rng large
          else Sim.Rng.int rng small)
    in
    (files, Array.init n (fun _ -> exp_gap rng))
  in
  { names; bodies; slots = Array.map slot (Openloop.slot_sizes ()) }

(* Guest side: write the seeded docroot on /tmp (ramfs), then serve. *)
let write_docroot c inp =
  let module L = Apps.Libc in
  ignore (L.mkdir c "/tmp/www");
  let buf = L.ualloc c 65536 in
  Array.iteri
    (fun i name ->
      let body = inp.bodies.(i) in
      let fd = L.openf c ("/tmp/www/" ^ name) ~flags:0o101 ~mode:0o644 in
      (L.raw c).Ostd.User.mem_write buf (Bytes.unsafe_of_string body);
      let written = ref 0 in
      while !written < String.length body do
        let n = L.write c ~fd ~vaddr:(buf + !written) ~len:(String.length body - !written) in
        if n <= 0 then begin
          mismatch ("docroot write failed: " ^ name);
          written := String.length body
        end
        else written := !written + n
      done;
      ignore (L.close c fd))
    inp.names

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* Status line, Content-Length and every body byte against the file. *)
let verify ~name ~body resp =
  let bad why =
    mismatch (Printf.sprintf "GET /%s: %s" name why);
    false
  in
  match find_sub resp "\r\n\r\n" with
  | None -> bad ("no header terminator in " ^ String.escaped (String.sub resp 0 (min 80 (String.length resp))))
  | Some h ->
    let lines = String.split_on_char '\n' (String.sub resp 0 h) |> List.map String.trim in
    let clen =
      List.find_map
        (fun l ->
          match String.index_opt l ':' with
          | Some i when String.lowercase_ascii (String.sub l 0 i) = "content-length" ->
            int_of_string_opt (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | _ -> None)
        lines
    in
    let got = String.sub resp (h + 4) (String.length resp - h - 4) in
    if lines = [] || not (String.starts_with ~prefix:"HTTP/1.0 200 " (List.hd lines)) then
      bad ("status: " ^ String.escaped (List.hd lines))
    else if clen <> Some (String.length body) then bad "content-length"
    else if String.length got <> String.length body then bad "body length"
    else if got <> body then bad "body bytes"
    else true

(* One request on a fresh connection; returns the verified body size. *)
let fetch host inp ~retry file buf =
  let htcp = host.Aster.Kernel.htcp in
  let rec connect tries =
    match Aster.Tcp.connect htcp ~dst_ip:Aster.Kernel.guest_ip ~dst_port:Apps.Mini_nginx.port with
    | Ok conn -> Some conn
    | Error _ when tries > 0 ->
      Ostd.Task.sleep_us 200.;
      connect (tries - 1)
    | Error _ -> None
  in
  let name = inp.names.(file) in
  match connect (if retry then 100 else 0) with
  | None ->
    mismatch ("GET /" ^ name ^ ": connect failed");
    None
  | Some conn ->
    Aster.Tcp.set_nodelay conn;
    let req = Bytes.of_string (Printf.sprintf "GET /%s HTTP/1.0\r\n\r\n" name) in
    let sent = Aster.Tcp.send conn ~buf:req ~pos:0 ~len:(Bytes.length req) in
    let resp = Buffer.create 4096 in
    let rec drain () =
      match Aster.Tcp.recv conn ~buf ~pos:0 ~len:(Bytes.length buf) with
      | Ok 0 | Error _ -> ()
      | Ok n ->
        Buffer.add_subbytes resp buf 0 n;
        drain ()
    in
    if sent = Ok (Bytes.length req) then drain ();
    Aster.Tcp.close conn;
    let body = inp.bodies.(file) in
    if verify ~name ~body (Buffer.contents resp) then Some (String.length body) else None

let rep ~seed =
  let t0 = host_s () in
  let inp = gen ~seed in
  let k = Apps.Runner.boot ~profile:Sim.Profile.asterinas in
  let host = Aster.Kernel.attach_host k in
  let total = Array.fold_left ( + ) 1 (Openloop.slot_sizes ()) in
  Apps.Runner.spawn ~name:"mini-nginx" (fun c ->
      write_docroot c inp;
      Apps.Mini_nginx.server ~requests:total c);
  let pool = Openloop.create_pool ~name:"http-client" ~size:(pi "clients") in
  let buffers = Queue.create () in
  let with_buf f =
    let b = match Queue.take_opt buffers with Some b -> b | None -> Bytes.create 65536 in
    let r = f b in
    Queue.push b buffers;
    r
  in
  (* The first request waits for the server to listen; it is set-up. *)
  let ready = ref false in
  Openloop.push pool (fun () ->
      ignore (with_buf (fetch host inp ~retry:true 0));
      ready := true);
  Aster.Kernel.run_until (fun () -> !ready);
  Openloop.settle ~us:(pf "settle_us");
  let setup_s = host_s () -. t0 in
  let h0 = Hostm.snap () in
  let run_slot j rate =
    let files, gaps = inp.slots.(j) in
    let st = Openloop.make ~rate ~n:(Array.length files) in
    Openloop.run st ~gaps ~submit:(fun i ->
        Openloop.push pool (fun () ->
            match with_buf (fetch host inp ~retry:false files.(i)) with
            | Some bytes -> Openloop.complete st i ~ok:true ~bytes
            | None -> Openloop.complete st i ~ok:false ~bytes:0));
    Openloop.settle ~us:(pf "settle_us");
    Hostm.tick ();
    st
  in
  let ctx =
    {
      Layers.server = "mini-nginx/";
      hstack = Some host.Aster.Kernel.hstack;
      endpoint = Some k.Aster.Kernel.devices.Machine.Board.host_endpoint;
    }
  in
  Openloop.measure ~setup_s ~h0 ~ctx ~run_slot
