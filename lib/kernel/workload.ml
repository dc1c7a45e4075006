module Engine = Pibe_cpu.Engine
module Rng = Pibe_util.Rng

type op = {
  op_name : string;
  run : Engine.t -> Rng.t -> unit;
}

type mix = {
  mix_name : string;
  request : Engine.t -> Rng.t -> unit;
  user_ratio : float;
}

(* Resolve the entry point and syscall number once, at table-construction
   time: replay loops issue one [sc] per simulated syscall, millions per
   run, and the per-request name hash (plus its [find_opt] allocation)
   was measurable.  The closures below close over the resolved [nr], so
   the per-request work is exactly the engine call. *)
let sc info name =
  let entry = info.Gen.entry and nr = Gen.nr info name in
  fun eng a0 a1 -> ignore (Engine.call eng entry [ nr; a0; a1 ])

(* fd draws: Zipfian popularity within each fd class, so each dispatch
   table sees one dominant target plus a tail (paper Table 4). *)
let file_fds = Rng.zipf_dist ~n:64 ~s:1.1
let pipe_fds = Rng.zipf_dist ~n:16 ~s:1.0
let tcp_fds = Rng.zipf_dist ~n:20 ~s:1.1
let udp_fds = Rng.zipf_dist ~n:12 ~s:1.0
let unix_fds = Rng.zipf_dist ~n:12 ~s:1.0
let file_fd rng = Rng.zipf rng file_fds
let pipe_fd rng = 64 + Rng.zipf rng pipe_fds
let tcp_fd rng = 80 + Rng.zipf rng tcp_fds
let udp_fd rng = 100 + Rng.zipf rng udp_fds
let unix_fd rng = 112 + Rng.zipf rng unix_fds
let buf_len rng = 1 + Rng.int rng 4000
let path_id rng = Rng.int rng 1_000_000

let lmbench info =
  let op name run = { op_name = name; run } in
  let null = sc info "null" and read = sc info "read" and write = sc info "write" in
  let open_ = sc info "open" and stat = sc info "stat" and fstat = sc info "fstat" in
  let send = sc info "send" and recv = sc info "recv" in
  let fork = sc info "fork" and exec = sc info "exec" and exit_ = sc info "exit" in
  let select = sc info "select" and connect = sc info "connect" in
  let mmap = sc info "mmap" and page_fault = sc info "page_fault" in
  let sig_install = sc info "sig_install" and sig_dispatch = sc info "sig_dispatch" in
  [
    op "null" (fun eng rng -> null eng (Rng.int rng 64) 0);
    op "read" (fun eng rng -> read eng (file_fd rng) (buf_len rng));
    op "write" (fun eng rng -> write eng (file_fd rng) (buf_len rng));
    op "open" (fun eng rng -> open_ eng (path_id rng) (Rng.int rng 8));
    op "stat" (fun eng rng -> stat eng (path_id rng) (Rng.int rng 64));
    op "fstat" (fun eng rng -> fstat eng (file_fd rng) 0);
    op "af_unix" (fun eng rng ->
        let fd = unix_fd rng in
        send eng fd (buf_len rng);
        recv eng fd (buf_len rng));
    op "fork/exit" (fun eng rng ->
        fork eng (Rng.int rng 256) (Rng.int rng 4096);
        exit_ eng 0 0);
    op "fork/exec" (fun eng rng ->
        fork eng (Rng.int rng 256) (Rng.int rng 4096);
        exec eng (path_id rng) (Rng.int rng 16);
        exit_ eng 0 0);
    op "fork/shell" (fun eng rng ->
        fork eng (Rng.int rng 256) (Rng.int rng 4096);
        exec eng (path_id rng) (Rng.int rng 16);
        open_ eng (path_id rng) 0;
        stat eng (path_id rng) 0;
        for _ = 1 to 4 do
          read eng (file_fd rng) (buf_len rng)
        done;
        write eng (file_fd rng) (buf_len rng);
        exit_ eng 0 0);
    op "pipe" (fun eng rng ->
        let fd = pipe_fd rng in
        write eng fd (buf_len rng);
        read eng fd (buf_len rng));
    op "select_file" (fun eng _rng -> select eng 0 32);
    op "select_tcp" (fun eng _rng -> select eng 80 40);
    op "tcp_conn" (fun eng rng -> connect eng (tcp_fd rng) (path_id rng));
    op "udp" (fun eng rng ->
        let fd = udp_fd rng in
        send eng fd (buf_len rng);
        recv eng fd (buf_len rng));
    op "tcp" (fun eng rng ->
        let fd = tcp_fd rng in
        send eng fd (buf_len rng);
        recv eng fd (buf_len rng));
    op "mmap" (fun eng rng -> mmap eng (Rng.int rng 65536) 4096);
    op "page_fault" (fun eng rng -> page_fault eng (Rng.int rng 65536) 2);
    op "sig_install" (fun eng rng ->
        sig_install eng (Rng.int rng 16) (Rng.int rng 4));
    op "sig_dispatch" (fun eng rng -> sig_dispatch eng (Rng.int rng 16) 1);
  ]

let lmbench_op info name =
  List.find (fun o -> String.equal o.op_name name) (lmbench info)

let apache info =
  let select = sc info "select" and accept = sc info "accept" in
  let recv = sc info "recv" and send = sc info "send" in
  let stat = sc info "stat" and open_ = sc info "open" in
  let read = sc info "read" and write = sc info "write" in
  let mmap = sc info "mmap" and page_fault = sc info "page_fault" in
  let sig_dispatch = sc info "sig_dispatch" and fstat = sc info "fstat" in
  let fork = sc info "fork" and exec = sc info "exec" and exit_ = sc info "exit" in
  let yield = sc info "yield" in
  {
    mix_name = "Apache";
    user_ratio = 1.30;
    request =
      (fun eng rng ->
        let conn = tcp_fd rng in
        (* the MPM event loop polls its listeners before accepting *)
        select eng 80 16;
        accept eng conn 0;
        recv eng conn (buf_len rng);
        stat eng (path_id rng) 0;
        open_ eng (path_id rng) 0;
        read eng (file_fd rng) (buf_len rng);
        read eng (file_fd rng) (buf_len rng);
        send eng conn (buf_len rng);
        send eng conn (buf_len rng);
        (* mapped I/O, the occasional fault, signal delivery, and worker
           management show up across requests *)
        if Rng.int rng 8 = 0 then mmap eng (Rng.int rng 65536) 4096;
        if Rng.int rng 4 = 0 then page_fault eng (Rng.int rng 65536) 2;
        if Rng.int rng 8 = 0 then sig_dispatch eng (Rng.int rng 16) 0;
        if Rng.int rng 32 = 0 then begin
          fork eng (Rng.int rng 256) (Rng.int rng 4096);
          exec eng (path_id rng) 1;
          exit_ eng 0 0
        end;
        if Rng.int rng 16 = 0 then begin
          let fd = pipe_fd rng in
          write eng fd (buf_len rng);
          read eng fd (buf_len rng)
        end;
        if Rng.int rng 16 = 0 then fstat eng (file_fd rng) 0;
        yield eng 0 0);
  }

let nginx info =
  let accept = sc info "accept" and recv = sc info "recv" in
  let stat = sc info "stat" and read = sc info "read" and send = sc info "send" in
  {
    mix_name = "Nginx";
    user_ratio = 0.39;
    request =
      (fun eng rng ->
        let conn = tcp_fd rng in
        accept eng conn 0;
        recv eng conn (buf_len rng);
        stat eng (path_id rng) 0;
        read eng (file_fd rng) (buf_len rng);
        send eng conn (buf_len rng);
        send eng conn (buf_len rng));
  }

type phase = {
  phase_name : string;
  request : Engine.t -> Rng.t -> unit;
}

let phase_of_mix m = { phase_name = m.mix_name; request = m.request }

let lmbench_phase info =
  let ops = lmbench info in
  {
    phase_name = "LMBench";
    request = (fun eng rng -> List.iter (fun o -> o.run eng rng) ops);
  }

let dbench info =
  let open_ = sc info "open" and read = sc info "read" and write = sc info "write" in
  let stat = sc info "stat" and fsync = sc info "fsync" and yield = sc info "yield" in
  {
    mix_name = "DBench";
    user_ratio = 0.64;
    request =
      (fun eng rng ->
        open_ eng (path_id rng) 0;
        read eng (file_fd rng) (buf_len rng);
        read eng (file_fd rng) (buf_len rng);
        write eng (file_fd rng) (buf_len rng);
        write eng (file_fd rng) (buf_len rng);
        stat eng (path_id rng) 0;
        fsync eng (file_fd rng) 0;
        yield eng 0 0);
  }

(* The canonical drifting deployment: a microbenchmark phase, then a web
   phase, then a file-server phase.  Each transition reshuffles which
   dispatch-table targets are hot, which is exactly the staleness the
   online loop must detect. *)
let standard_phases info =
  [ lmbench_phase info; phase_of_mix (apache info); phase_of_mix (dbench info) ]

let blend name parts =
  if parts = [] then invalid_arg "Workload.blend: empty part list";
  let arr = Array.of_list (List.map (fun (p, w) -> (w, p)) parts) in
  {
    phase_name = name;
    request = (fun eng rng -> (Rng.weighted rng arr).request eng rng);
  }
