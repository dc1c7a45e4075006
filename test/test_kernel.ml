(* The synthetic kernel: determinism, structure, dispatch-table wiring,
   workload execution, and the SPEC suite. *)

open Pibe_ir
module Gen = Pibe_kernel.Gen
module Ctx = Pibe_kernel.Ctx
module Memmap = Pibe_kernel.Memmap
module Workload = Pibe_kernel.Workload
module Spec = Pibe_kernel.Spec
module Engine = Pibe_cpu.Engine
module Rng = Pibe_util.Rng

let test_deterministic () =
  let a = Gen.generate { Ctx.seed = 7; scale = 1 } in
  let b = Gen.generate { Ctx.seed = 7; scale = 1 } in
  Alcotest.(check string) "identical images"
    (Printer.program_to_string a.Gen.prog)
    (Printer.program_to_string b.Gen.prog)

let test_seeds_differ () =
  let a = Gen.generate { Ctx.seed = 7; scale = 1 } in
  let b = Gen.generate { Ctx.seed = 8; scale = 1 } in
  Alcotest.(check bool) "different images" true
    (Printer.program_to_string a.Gen.prog <> Printer.program_to_string b.Gen.prog)

let test_scale_grows () =
  let a = Gen.generate { Ctx.seed = 7; scale = 1 } in
  let b = Gen.generate { Ctx.seed = 7; scale = 2 } in
  Alcotest.(check bool) "more functions at scale 2" true
    (Program.func_count b.Gen.prog > Program.func_count a.Gen.prog)

let test_validates () =
  let info = Helpers.kernel () in
  Alcotest.(check int) "no validation errors" 0
    (List.length (Validate.check_program info.Gen.prog))

let test_structure () =
  let info = Helpers.kernel () in
  let prog = info.Gen.prog in
  Alcotest.(check bool) "hundreds of functions" true (Program.func_count prog > 500);
  Alcotest.(check bool) "dozens of icall sites" true (Program.total_icall_sites prog > 30);
  Alcotest.(check bool) "rets ~ one per function" true
    (Program.total_ret_sites prog >= Program.func_count prog);
  (* every syscall is dispatchable *)
  List.iter
    (fun (name, _) -> ignore (Gen.nr info name))
    info.Gen.syscalls.Pibe_kernel.Syscalls.nrs

let test_fd_tables_wired () =
  let info = Helpers.kernel () in
  let mem = Program.initial_memory info.Gen.prog in
  let mm = info.Gen.mm in
  (* fd 0 is an ext4 file; fd 70 a pipe; fd 90 a tcp socket *)
  Alcotest.(check int) "fd 0 ext4" 0 mem.(mm.Memmap.fd_table + 0);
  Alcotest.(check int) "fd 70 pipefs" 6 mem.(mm.Memmap.fd_table + 70);
  Alcotest.(check int) "fd 90 sockfs" 7 mem.(mm.Memmap.fd_table + 90);
  Alcotest.(check int) "fd 90 tcp" 0 mem.(mm.Memmap.proto_table + 90);
  (* every ops cell holds a valid fptr index *)
  let nfptr = Array.length info.Gen.prog.Program.fptr_table in
  for fs = 0 to mm.Memmap.nfs - 1 do
    for op = 0 to mm.Memmap.ops_per_fs - 1 do
      let v = mem.(Memmap.vfs_op_addr mm ~fs ~op) in
      Alcotest.(check bool) "valid fptr" true (v >= 0 && v < nfptr)
    done
  done

let test_all_lmbench_ops_run () =
  let info = Helpers.kernel () in
  let engine = Engine.create info.Gen.prog in
  let rng = Rng.create 3 in
  List.iter
    (fun (op : Workload.op) ->
      for _ = 1 to 5 do
        op.Workload.run engine rng
      done)
    (Workload.lmbench info);
  Alcotest.(check bool) "executed instructions" true
    ((Engine.counters engine).Engine.insts > 1000)

let test_lmbench_has_20_ops () =
  let info = Helpers.kernel () in
  Alcotest.(check int) "paper's 20 latency tests" 20 (List.length (Workload.lmbench info));
  (* order matches paper Table 2 *)
  Alcotest.(check string) "first" "null"
    (List.hd (Workload.lmbench info)).Workload.op_name

let test_macro_mixes_run () =
  let info = Helpers.kernel () in
  let engine = Engine.create info.Gen.prog in
  let rng = Rng.create 5 in
  List.iter
    (fun (mix : Workload.mix) ->
      for _ = 1 to 40 do
        mix.Workload.request engine rng
      done;
      Alcotest.(check bool) (mix.Workload.mix_name ^ " user ratio positive") true
        (mix.Workload.user_ratio > 0.0))
    [ Workload.apache info; Workload.nginx info; Workload.dbench info ]

let test_boot_code_never_runs () =
  let info = Helpers.kernel () in
  let prog = info.Gen.prog in
  let profile =
    Pibe.Pipeline.profile prog ~run:(fun engine ->
        let rng = Rng.create 5 in
        List.iter
          (fun (op : Workload.op) ->
            for _ = 1 to 10 do
              op.Workload.run engine rng
            done)
          (Workload.lmbench info))
  in
  Program.iter_funcs prog (fun f ->
      if f.Types.attrs.Types.boot_only then
        Alcotest.(check int) (f.Types.fname ^ " not entered") 0
          (Pibe_profile.Profile.invocations profile f.Types.fname))

let test_gadget_registered_but_unreached () =
  let info = Helpers.kernel () in
  Alcotest.(check bool) "gadget in fptr table" true
    (Program.fptr_index info.Gen.prog info.Gen.gadget <> None);
  let engine = Engine.create info.Gen.prog in
  let rng = Rng.create 5 in
  let config = { Engine.default_config with Engine.record_trace = true } in
  let engine2 = Engine.create ~config info.Gen.prog in
  ignore engine;
  List.iter
    (fun (op : Workload.op) ->
      for _ = 1 to 3 do
        op.Workload.run engine2 rng
      done)
    (Workload.lmbench info);
  (* the secret value never appears in the observable trace *)
  Alcotest.(check bool) "secret never observed" true
    (not (List.mem 0xdeadbeef (Engine.trace engine2)))

let test_spec_suite_runs () =
  let spec = Spec.build () in
  let engine = Engine.create spec.Spec.prog in
  List.iter
    (fun (_, entry) ->
      ignore (Engine.call engine entry [ 10; 0 ]))
    spec.Spec.benchmarks;
  Alcotest.(check int) "ten benchmarks" 10 (List.length spec.Spec.benchmarks);
  (* micro entries execute the requested number of calls *)
  Engine.reset_cycles engine;
  let c0 = (Engine.counters engine).Engine.calls in
  ignore (Engine.call engine spec.Spec.micro_dcall [ 100; 0 ]);
  Alcotest.(check int) "100 dcalls" 100 ((Engine.counters engine).Engine.calls - c0)

let test_memmap_regions_disjoint () =
  let mm = Memmap.make ~nfs:8 ~nproto:4 ~n_drv:12 in
  let regions =
    [
      (mm.Memmap.fd_table, mm.Memmap.nfd);
      (mm.Memmap.proto_table, mm.Memmap.nfd);
      (mm.Memmap.vfs_ops, mm.Memmap.nfs * mm.Memmap.ops_per_fs);
      (mm.Memmap.sock_ops, mm.Memmap.nproto * mm.Memmap.ops_per_proto);
      (mm.Memmap.pv_ops, mm.Memmap.n_pv);
      (mm.Memmap.sched_ops, mm.Memmap.n_sched_class * mm.Memmap.ops_per_sched);
      (mm.Memmap.sig_handlers, mm.Memmap.n_sig);
      (mm.Memmap.drv_ops, mm.Memmap.n_drv * mm.Memmap.ops_per_drv);
      (mm.Memmap.timer_cbs, mm.Memmap.n_timer);
      (mm.Memmap.lsm_hooks, 4);
      (mm.Memmap.nf_hooks, 4);
      (mm.Memmap.tick, 1);
      (mm.Memmap.scratch, mm.Memmap.scratch_len);
      (mm.Memmap.secret, 1);
    ]
  in
  let sorted = List.sort compare regions in
  let rec check = function
    | (b1, l1) :: ((b2, _) :: _ as rest) ->
      Alcotest.(check bool) "disjoint" true (b1 + l1 <= b2);
      check rest
    | _ -> ()
  in
  check sorted;
  let last_base, last_len = List.nth sorted (List.length sorted - 1) in
  Alcotest.(check bool) "within size" true (last_base + last_len <= mm.Memmap.size)

let test_block_layer_on_fsync_path () =
  (* fsync must dispatch through the I/O-scheduler ops tables *)
  let info = Helpers.kernel () in
  let seen = ref [] in
  let config =
    {
      Engine.default_config with
      Engine.on_call = Some (fun ~site:_ ~callee -> seen := callee :: !seen);
    }
  in
  let engine = Engine.create ~config info.Gen.prog in
  ignore (Engine.call engine info.Gen.entry [ Gen.nr info "fsync"; 0; 1 ]);
  let seen = List.map (Engine.func_name engine) !seen in
  let hit name = List.exists (fun c -> String.equal c name) seen in
  Alcotest.(check bool) "submit_bio ran" true (hit "submit_bio");
  Alcotest.(check bool) "blk_flush ran" true (hit "blk_flush");
  Alcotest.(check bool) "a scheduler op ran" true
    (List.exists
       (fun c ->
         List.exists
           (fun p -> String.length c > String.length p && String.sub c 0 (String.length p) = p)
           [ "noop_"; "deadline_"; "cfq_" ])
       seen)

let test_crypto_on_exec_path () =
  let info = Helpers.kernel () in
  let seen = ref [] in
  let config =
    {
      Engine.default_config with
      Engine.on_call = Some (fun ~site:_ ~callee -> seen := callee :: !seen);
    }
  in
  let engine = Engine.create ~config info.Gen.prog in
  ignore (Engine.call engine info.Gen.entry [ Gen.nr info "exec"; 12345; 1 ]);
  Alcotest.(check bool) "signature hash ran" true
    (List.exists (fun c -> String.equal (Engine.func_name engine c) "crypto_hash") !seen)

let test_gen_util_loop () =
  (* loop executes count iterations and leaves the builder at the exit *)
  let mm = Memmap.make ~nfs:1 ~nproto:1 ~n_drv:1 in
  let ctx = Pibe_kernel.Ctx.create { Ctx.seed = 1; scale = 1 } mm in
  let b = Pibe_ir.Builder.create ~name:"looper" ~params:1 in
  let n = Pibe_ir.Builder.param b 0 in
  ignore
    (Pibe_kernel.Gen_util.loop ctx b ~count:(Pibe_ir.Types.Reg n) ~body:(fun b _ ->
         Pibe_ir.Builder.observe b (Pibe_ir.Types.Imm 1);
         None));
  Pibe_ir.Builder.ret b None;
  let prog =
    Program.add_func
      (Program.with_globals_size Program.empty mm.Memmap.size)
      (Pibe_ir.Builder.finish b ())
  in
  let config = { Engine.default_config with Engine.record_trace = true } in
  let engine = Engine.create ~config prog in
  ignore (Engine.call engine "looper" [ 7 ]);
  Alcotest.(check int) "7 iterations" 7 (List.length (Engine.trace engine))

let test_gen_util_chain_depth () =
  let mm = Memmap.make ~nfs:1 ~nproto:1 ~n_drv:1 in
  let ctx = Pibe_kernel.Ctx.create { Ctx.seed = 2; scale = 1 } mm in
  let top = Pibe_kernel.Gen_util.chain ctx ~name:"c" ~depth:3 ~compute:4 ~subsystem:"t" () in
  Alcotest.(check string) "top named after the chain" "c" top;
  let prog = ctx.Pibe_kernel.Ctx.prog in
  (* depth 3 = top + two intermediate levels + leaf *)
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " exists") true (Program.mem prog name))
    [ "c"; "c__2"; "c__1"; "c__0" ];
  (* executing the top reaches the leaf *)
  let engine = Engine.create prog in
  ignore (Engine.call engine "c" [ 1; 2 ]);
  Alcotest.(check bool) "4 activations" true ((Engine.counters engine).Engine.calls >= 3)

let suite =
  [
    ("generation deterministic", `Quick, test_deterministic);
    ("different seeds differ", `Quick, test_seeds_differ);
    ("scale grows the image", `Quick, test_scale_grows);
    ("image validates", `Quick, test_validates);
    ("structure sanity", `Quick, test_structure);
    ("fd/ops tables wired", `Quick, test_fd_tables_wired);
    ("all lmbench ops run", `Quick, test_all_lmbench_ops_run);
    ("lmbench has the paper's 20 tests", `Quick, test_lmbench_has_20_ops);
    ("macro mixes run", `Quick, test_macro_mixes_run);
    ("boot code never runs under workloads", `Quick, test_boot_code_never_runs);
    ("gadget registered but unreached", `Quick, test_gadget_registered_but_unreached);
    ("spec suite runs", `Quick, test_spec_suite_runs);
    ("memmap regions disjoint", `Quick, test_memmap_regions_disjoint);
    ("block layer on fsync path", `Quick, test_block_layer_on_fsync_path);
    ("crypto on exec path", `Quick, test_crypto_on_exec_path);
    ("gen_util loop semantics", `Quick, test_gen_util_loop);
    ("gen_util chain structure", `Quick, test_gen_util_chain_depth);
  ]
