(* Dispatch-floor microbenchmark: ns of host wall-clock per simulated
   instruction, per execution backend, on two adversarial program
   shapes.

     bench/dispatch_bench.exe            full run (default rounds)
     bench/dispatch_bench.exe --quick    smoke settings (make check)

   Programs:
     call-dominated  a tight loop whose body is one direct call to a
                     6-instruction straight-line leaf — per-iteration
                     work is dominated by the call/return seam.
     loop-dominated  a loop over a 64-instruction Jmp-chained superblock
                     — per-iteration work is pure straight-line dispatch.

   Backends (bit-exact against each other):
     interp      reference interpreter
     compiled    closure-threaded superblock traces

   Each backend gets one engine, warmed up front so every trace the loop
   reaches is already lowered; then the timed batches are INTERLEAVED
   across backends (round 1 of each, then round 2, ...) so host-speed
   drift hits both alike — the same rationale as tools/bench_compare.sh
   — and each backend reports the best of its [rounds] batches, which
   suppresses scheduling noise. *)

open Pibe_ir
open Types

let iters_per_call = 256

(* main(n): acc = 0; for i < n: acc = leaf(i, acc); ret acc.  leaf is a
   straight-line 5-binop body — CAssign-only, single Ret block. *)
let call_dominated () =
  let prog = ref (Program.with_globals_size Program.empty 16) in
  let leaf =
    let b = Builder.create ~name:"leaf" ~params:2 in
    let a = Builder.param b 0 and acc = Builder.param b 1 in
    let r1 = Builder.reg b in
    Builder.assign b r1 (Binop (Add, Reg a, Reg acc));
    let r2 = Builder.reg b in
    Builder.assign b r2 (Binop (Xor, Reg r1, Imm 7));
    let r3 = Builder.reg b in
    Builder.assign b r3 (Binop (Add, Reg r2, Reg a));
    let r4 = Builder.reg b in
    Builder.assign b r4 (Binop (Mul, Reg r3, Imm 3));
    let r5 = Builder.reg b in
    Builder.assign b r5 (Binop (And, Reg r4, Imm 262143));
    Builder.ret b (Some (Reg r5));
    Builder.finish b ()
  in
  prog := Program.add_func !prog leaf;
  let main =
    let b = Builder.create ~name:"main" ~params:1 in
    let n = Builder.param b 0 in
    let acc = Builder.reg b and i = Builder.reg b in
    let header = Builder.new_block b in
    let body = Builder.new_block b in
    let exit_b = Builder.new_block b in
    Builder.assign b acc (Const 0);
    Builder.assign b i (Const 0);
    Builder.jmp b header;
    Builder.switch_to b header;
    let cond = Builder.reg b in
    Builder.assign b cond (Binop (Lt, Reg i, Reg n));
    Builder.br b (Reg cond) body exit_b;
    Builder.switch_to b body;
    let p, site = Program.fresh_site !prog in
    prog := p;
    Builder.call b ~dst:acc site "leaf" [ Reg i; Reg acc ];
    Builder.assign b i (Binop (Add, Reg i, Imm 1));
    Builder.jmp b header;
    Builder.switch_to b exit_b;
    Builder.ret b (Some (Reg acc));
    Builder.finish b ()
  in
  prog := Program.add_func !prog main;
  !prog

(* hot(n): a loop whose body is four Jmp-chained blocks of 16 binops
   each — one long single-predecessor chain per iteration. *)
let loop_dominated () =
  let b = Builder.create ~name:"hot" ~params:1 in
  let n = Builder.param b 0 in
  let x = Builder.reg b and i = Builder.reg b in
  let header = Builder.new_block b in
  let bodies = Array.init 4 (fun _ -> Builder.new_block b) in
  let exit_b = Builder.new_block b in
  Builder.assign b x (Const 1);
  Builder.assign b i (Const 0);
  Builder.jmp b header;
  Builder.switch_to b header;
  let cond = Builder.reg b in
  Builder.assign b cond (Binop (Lt, Reg i, Reg n));
  Builder.br b (Reg cond) bodies.(0) exit_b;
  Array.iteri
    (fun bi body ->
      Builder.switch_to b body;
      for k = 0 to 15 do
        let op = [| Add; Xor; Sub; Or |].(k land 3) in
        Builder.assign b x (Binop (op, Reg x, Imm (3 + k + (16 * bi))))
      done;
      if bi = 3 then begin
        Builder.assign b i (Binop (Add, Reg i, Imm 1));
        Builder.jmp b header
      end
      else Builder.jmp b bodies.(bi + 1))
    bodies;
  Builder.switch_to b exit_b;
  Builder.ret b (Some (Reg x));
  Builder.finish b ()
    |> Program.add_func (Program.with_globals_size Program.empty 16)

let backends = [ Pibe_cpu.Engine.Interp; Pibe_cpu.Engine.Compiled ]

(* One warm engine per backend. *)
let warm_engine prog ~entry ~warmup backend =
  let e = Pibe_cpu.Engine.create ~backend prog in
  for _ = 1 to warmup do
    ignore (Pibe_cpu.Engine.call e entry [ iters_per_call ])
  done;
  e

(* One timed batch of [runs] top-level calls on an already-warm engine:
   ns of wall-clock per simulated instruction executed in the batch. *)
let time_batch e ~entry ~runs =
  let insts0 = (Pibe_cpu.Engine.counters e).Pibe_cpu.Engine.insts in
  let t0 = Pibe_trace.Trace.now_s () in
  for _ = 1 to runs do
    ignore (Pibe_cpu.Engine.call e entry [ iters_per_call ])
  done;
  let dt = Pibe_trace.Trace.now_s () -. t0 in
  let di = (Pibe_cpu.Engine.counters e).Pibe_cpu.Engine.insts - insts0 in
  dt *. 1e9 /. float_of_int di

(* Measure every backend on one program with the batches interleaved:
   round-robin over the engines so host drift is shared. *)
let measure_row prog ~entry ~warmup ~runs ~rounds =
  let engines = List.map (warm_engine prog ~entry ~warmup) backends in
  let best = Array.make (List.length engines) infinity in
  for _ = 1 to rounds do
    List.iteri
      (fun i e ->
        let ns = time_batch e ~entry ~runs in
        if ns < best.(i) then best.(i) <- ns)
      engines
  done;
  Array.to_list best

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  (* --prof BACKEND PROGRAM: hammer one backend on one program for a few
     seconds and exit — a steady-state target for a sampling profiler
     (the interleaved measurement loop spreads samples too thin). *)
  (match Array.to_list Sys.argv with
  | _ :: "--prof" :: backend_name :: prog_name :: _ ->
    let backend =
      match Pibe_cpu.Engine.backend_of_string backend_name with
      | Some b -> b
      | None ->
        Printf.eprintf "--prof expects 'interp' or 'compiled', got %s\n" backend_name;
        exit 2
    in
    let prog, entry =
      if prog_name = "call-dominated" then (call_dominated (), "main")
      else (loop_dominated (), "hot")
    in
    let e = ref (warm_engine prog ~entry ~warmup:16 backend) in
    let ns = ref 0.0 in
    for _ = 1 to 100 do
      (* a fresh warm engine per batch keeps the run under the fuel cap *)
      match time_batch !e ~entry ~runs:1000 with
      | v -> ns := v
      | exception Pibe_cpu.Machine.Out_of_fuel ->
        e := warm_engine prog ~entry ~warmup:16 backend
    done;
    Printf.printf "prof %s %s: %.2f ns/inst (last batch)\n" backend_name prog_name !ns;
    exit 0
  | _ -> ());
  let warmup = if quick then 4 else 16 in
  let runs = if quick then 40 else 400 in
  let rounds = if quick then 2 else 5 in
  let programs =
    [ ("call-dominated", call_dominated (), "main"); ("loop-dominated", loop_dominated (), "hot") ]
  in
  Printf.printf "dispatch_bench: ns of wall-clock per simulated instruction\n";
  Printf.printf "(%d sim-insts/call batches; best of %d rounds x %d calls)\n\n" iters_per_call
    rounds runs;
  Printf.printf "%-16s" "program";
  List.iter
    (fun b -> Printf.printf "  %9s" (Pibe_cpu.Engine.backend_to_string b))
    backends;
  print_newline ();
  List.iter
    (fun (name, prog, entry) ->
      let row = measure_row prog ~entry ~warmup ~runs ~rounds in
      Printf.printf "%-16s" name;
      List.iter (fun ns -> Printf.printf "  %9.2f" ns) row;
      print_newline ())
    programs
